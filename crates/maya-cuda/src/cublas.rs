//! cuBLAS surface: stateful handles and GEMM entry points.
//!
//! cuBLAS operations "gain meaning only when considered within the
//! context of a broader sequence of API calls" (§4.1): a handle is
//! created, bound to a stream, configured, and only then used for math.
//! The emulator tracks that state to assemble complete GEMM metadata.

use maya_trace::{DeviceOp, Dtype, KernelKind, MemcpyKind};

use crate::clock::HostOpClass;
use crate::context::{CudaContext, CudaStream};
use crate::error::{CudaError, CudaResult};

/// Opaque cuBLAS handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CublasHandle(pub(crate) u64);

/// Emulator-side state for one cuBLAS handle.
#[derive(Clone, Copy, Debug)]
pub struct CublasState {
    /// Stream math calls are issued on (`cublasSetStream`).
    pub stream: CudaStream,
    /// Whether TF32 math mode is enabled (`cublasSetMathMode`).
    pub tf32: bool,
}

impl CudaContext {
    /// `cublasCreate`.
    pub fn cublas_create(&mut self) -> CublasHandle {
        let h = self.fresh_handle();
        self.cublas.insert(
            h,
            CublasState {
                stream: CudaStream::DEFAULT,
                tf32: false,
            },
        );
        CublasHandle(h)
    }

    /// `cublasDestroy`.
    pub fn cublas_destroy(&mut self, handle: CublasHandle) -> CudaResult<()> {
        self.cublas
            .remove(handle.0)
            .map(|_| ())
            .ok_or(CudaError::NotInitialized)
    }

    /// `cublasSetStream`.
    pub fn cublas_set_stream(
        &mut self,
        handle: CublasHandle,
        stream: CudaStream,
    ) -> CudaResult<()> {
        self.check_stream(stream)?;
        let st = self
            .cublas
            .get_mut(handle.0)
            .ok_or(CudaError::NotInitialized)?;
        st.stream = stream;
        Ok(())
    }

    /// `cublasSetMathMode(CUBLAS_TF32_TENSOR_OP_MATH)`.
    pub fn cublas_set_math_mode(&mut self, handle: CublasHandle, tf32: bool) -> CudaResult<()> {
        let st = self
            .cublas
            .get_mut(handle.0)
            .ok_or(CudaError::NotInitialized)?;
        st.tf32 = tf32;
        Ok(())
    }

    /// `cublasSetMatrix`: stages a host matrix onto the device (a
    /// synchronous HtoD copy in disguise).
    pub fn cublas_set_matrix(
        &mut self,
        rows: u64,
        cols: u64,
        elem_size: u64,
        handle: CublasHandle,
    ) -> CudaResult<()> {
        let state = *self.cublas.get(handle.0).ok_or(CudaError::NotInitialized)?;
        let s = self.check_stream(state.stream)?;
        self.record(
            s,
            &DeviceOp::MemcpyAsync {
                bytes: rows * cols * elem_size,
                kind: MemcpyKind::HostToDevice,
                sync: true,
            },
            HostOpClass::Library,
        );
        Ok(())
    }

    /// Shared GEMM recording path.
    #[inline(always)]
    fn gemm_common(&mut self, handle: CublasHandle, kernel: KernelKind) -> CudaResult<()> {
        let state = *self.cublas.get(handle.0).ok_or(CudaError::NotInitialized)?;
        let s = self.check_stream(state.stream)?;
        self.record(s, &DeviceOp::KernelLaunch { kernel }, HostOpClass::Library);
        Ok(())
    }

    /// `cublasSgemm_v2`: fp32 GEMM (TF32 if the handle's math mode says so).
    pub fn cublas_sgemm(&mut self, handle: CublasHandle, m: u64, n: u64, k: u64) -> CudaResult<()> {
        if m == 0 || n == 0 || k == 0 {
            return Err(CudaError::InvalidValue);
        }
        let tf32 = self
            .cublas
            .get(handle.0)
            .ok_or(CudaError::NotInitialized)?
            .tf32;
        let dtype = if tf32 { Dtype::Tf32 } else { Dtype::Fp32 };
        self.gemm_common(handle, KernelKind::Gemm { m, n, k, dtype })
    }

    /// `cublasGemmEx`: mixed-precision GEMM.
    #[inline(always)]
    pub fn cublas_gemm_ex(
        &mut self,
        handle: CublasHandle,
        m: u64,
        n: u64,
        k: u64,
        dtype: Dtype,
    ) -> CudaResult<()> {
        if m == 0 || n == 0 || k == 0 {
            return Err(CudaError::InvalidValue);
        }
        self.gemm_common(handle, KernelKind::Gemm { m, n, k, dtype })
    }

    /// `cublasSgemmStridedBatched` / `cublasGemmStridedBatchedEx`.
    pub fn cublas_gemm_strided_batched(
        &mut self,
        handle: CublasHandle,
        m: u64,
        n: u64,
        k: u64,
        batch: u64,
        dtype: Dtype,
    ) -> CudaResult<()> {
        if m == 0 || n == 0 || k == 0 || batch == 0 {
            return Err(CudaError::InvalidValue);
        }
        self.gemm_common(
            handle,
            KernelKind::GemmStridedBatched {
                m,
                n,
                k,
                batch,
                dtype,
            },
        )
    }

    /// `cublasLtMatmul`: epilogue-fused matmul.
    pub fn cublas_lt_matmul(
        &mut self,
        handle: CublasHandle,
        m: u64,
        n: u64,
        k: u64,
        dtype: Dtype,
    ) -> CudaResult<()> {
        if m == 0 || n == 0 || k == 0 {
            return Err(CudaError::InvalidValue);
        }
        self.gemm_common(handle, KernelKind::LtMatmul { m, n, k, dtype })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_hw::GpuSpec;
    use maya_trace::StreamId;

    #[test]
    fn gemm_uses_handle_stream() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let h = c.cublas_create();
        let s = c.stream_create();
        c.cublas_set_stream(h, s).unwrap();
        c.cublas_gemm_ex(h, 64, 64, 64, Dtype::Bf16).unwrap();
        let trace = c.into_trace();
        assert_eq!(
            trace.events.last().unwrap().stream,
            StreamId(s.raw() as u32)
        );
    }

    #[test]
    fn uninitialized_handle_rejected() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let bogus = CublasHandle(424242);
        assert_eq!(
            c.cublas_sgemm(bogus, 4, 4, 4),
            Err(CudaError::NotInitialized)
        );
    }

    #[test]
    fn destroyed_handle_rejected() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let h = c.cublas_create();
        c.cublas_destroy(h).unwrap();
        assert_eq!(
            c.cublas_gemm_ex(h, 4, 4, 4, Dtype::Fp16),
            Err(CudaError::NotInitialized)
        );
    }

    #[test]
    fn math_mode_changes_dtype() {
        let mut c = CudaContext::new(0, GpuSpec::a40());
        let h = c.cublas_create();
        c.cublas_sgemm(h, 8, 8, 8).unwrap();
        c.cublas_set_math_mode(h, true).unwrap();
        c.cublas_sgemm(h, 8, 8, 8).unwrap();
        let t = c.into_trace();
        let dtypes: Vec<Dtype> = t
            .events
            .iter()
            .filter_map(|e| e.op.as_kernel().and_then(|k| k.dtype()))
            .collect();
        assert_eq!(dtypes, vec![Dtype::Fp32, Dtype::Tf32]);
    }

    #[test]
    fn zero_dim_gemm_invalid() {
        let mut c = CudaContext::new(0, GpuSpec::h100());
        let h = c.cublas_create();
        assert_eq!(
            c.cublas_gemm_ex(h, 0, 4, 4, Dtype::Bf16),
            Err(CudaError::InvalidValue)
        );
    }

    #[test]
    fn set_matrix_records_htod() {
        let mut c = CudaContext::new(0, GpuSpec::v100());
        let h = c.cublas_create();
        c.cublas_set_matrix(64, 64, 4, h).unwrap();
        let t = c.into_trace();
        match t.events.last().unwrap().op {
            DeviceOp::MemcpyAsync { bytes, kind, sync } => {
                assert_eq!(bytes, 64 * 64 * 4);
                assert_eq!(kind, MemcpyKind::HostToDevice);
                assert!(sync);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }
}
