//! cuDNN surface: handles, convolution descriptors, conv/norm/pool ops.
//!
//! Convolution configuration in cuDNN is built incrementally through
//! descriptor objects before any math runs; the emulator tracks those
//! descriptors so that the eventual `cudnnConvolutionForward` carries
//! complete shape metadata (§4.1 "Context-aware Operation Modeling").

use maya_trace::{DeviceOp, Dtype, KernelKind};

use crate::clock::HostOpClass;
use crate::context::{CudaContext, CudaStream};
use crate::error::{CudaError, CudaResult};

/// Opaque cuDNN handle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CudnnHandle(pub(crate) u64);

/// Opaque convolution descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CudnnConvDesc(pub(crate) u64);

/// Emulator-side state for one cuDNN handle.
#[derive(Clone, Copy, Debug)]
pub struct CudnnState {
    /// Stream math calls are issued on.
    pub stream: CudaStream,
}

/// Emulator-side convolution configuration.
#[derive(Clone, Copy, Debug)]
pub struct ConvDescState {
    /// Batch size.
    pub n: u64,
    /// Input channels.
    pub c: u64,
    /// Input height.
    pub h: u64,
    /// Input width.
    pub w: u64,
    /// Output channels.
    pub k: u64,
    /// Square filter size.
    pub r: u64,
    /// Stride.
    pub stride: u64,
    /// Operand dtype.
    pub dtype: Dtype,
}

impl CudaContext {
    /// `cudnnCreate`.
    pub fn cudnn_create(&mut self) -> CudnnHandle {
        let h = self.fresh_handle();
        self.cudnn.insert(
            h,
            CudnnState {
                stream: CudaStream::DEFAULT,
            },
        );
        CudnnHandle(h)
    }

    /// `cudnnDestroy`.
    pub fn cudnn_destroy(&mut self, handle: CudnnHandle) -> CudaResult<()> {
        self.cudnn
            .remove(handle.0)
            .map(|_| ())
            .ok_or(CudaError::NotInitialized)
    }

    /// `cudnnSetStream`.
    pub fn cudnn_set_stream(&mut self, handle: CudnnHandle, stream: CudaStream) -> CudaResult<()> {
        self.check_stream(stream)?;
        let st = self
            .cudnn
            .get_mut(handle.0)
            .ok_or(CudaError::NotInitialized)?;
        st.stream = stream;
        Ok(())
    }

    /// Creates a convolution descriptor (stands in for the tensor/filter/
    /// convolution descriptor triple of the real API).
    #[allow(clippy::too_many_arguments)]
    pub fn cudnn_create_conv_descriptor(
        &mut self,
        n: u64,
        c: u64,
        h: u64,
        w: u64,
        k: u64,
        r: u64,
        stride: u64,
        dtype: Dtype,
    ) -> CudaResult<CudnnConvDesc> {
        if n == 0 || c == 0 || h == 0 || w == 0 || k == 0 || r == 0 || stride == 0 {
            return Err(CudaError::InvalidValue);
        }
        let id = self.fresh_handle();
        self.conv_descs.insert(
            id,
            ConvDescState {
                n,
                c,
                h,
                w,
                k,
                r,
                stride,
                dtype,
            },
        );
        Ok(CudnnConvDesc(id))
    }

    /// Destroys a convolution descriptor.
    pub fn cudnn_destroy_conv_descriptor(&mut self, desc: CudnnConvDesc) -> CudaResult<()> {
        self.conv_descs
            .remove(desc.0)
            .map(|_| ())
            .ok_or(CudaError::InvalidResourceHandle)
    }

    fn conv_common(
        &mut self,
        handle: CudnnHandle,
        desc: CudnnConvDesc,
        build: impl Fn(&ConvDescState) -> KernelKind,
    ) -> CudaResult<()> {
        let state = *self.cudnn.get(handle.0).ok_or(CudaError::NotInitialized)?;
        let d = *self
            .conv_descs
            .get(desc.0)
            .ok_or(CudaError::InvalidResourceHandle)?;
        let s = self.check_stream(state.stream)?;
        self.record(
            s,
            &DeviceOp::KernelLaunch { kernel: build(&d) },
            HostOpClass::Library,
        );
        Ok(())
    }

    /// `cudnnConvolutionForward`.
    pub fn cudnn_convolution_forward(
        &mut self,
        handle: CudnnHandle,
        desc: CudnnConvDesc,
    ) -> CudaResult<()> {
        self.conv_common(handle, desc, |d| KernelKind::ConvForward {
            n: d.n,
            c: d.c,
            h: d.h,
            w: d.w,
            k: d.k,
            r: d.r,
            stride: d.stride,
            dtype: d.dtype,
        })
    }

    /// `cudnnConvolutionBackwardData`.
    pub fn cudnn_convolution_backward_data(
        &mut self,
        handle: CudnnHandle,
        desc: CudnnConvDesc,
    ) -> CudaResult<()> {
        self.conv_common(handle, desc, |d| KernelKind::ConvBackwardData {
            n: d.n,
            c: d.c,
            h: d.h,
            w: d.w,
            k: d.k,
            r: d.r,
            stride: d.stride,
            dtype: d.dtype,
        })
    }

    /// `cudnnConvolutionBackwardFilter`.
    pub fn cudnn_convolution_backward_filter(
        &mut self,
        handle: CudnnHandle,
        desc: CudnnConvDesc,
    ) -> CudaResult<()> {
        self.conv_common(handle, desc, |d| KernelKind::ConvBackwardFilter {
            n: d.n,
            c: d.c,
            h: d.h,
            w: d.w,
            k: d.k,
            r: d.r,
            stride: d.stride,
            dtype: d.dtype,
        })
    }

    /// `cudnnBatchNormalizationForwardTraining` / backward.
    pub fn cudnn_batch_norm(
        &mut self,
        handle: CudnnHandle,
        numel: u64,
        channels: u64,
        forward: bool,
    ) -> CudaResult<()> {
        let state = *self.cudnn.get(handle.0).ok_or(CudaError::NotInitialized)?;
        let s = self.check_stream(state.stream)?;
        self.record(
            s,
            &DeviceOp::KernelLaunch {
                kernel: KernelKind::BatchNorm {
                    numel,
                    channels,
                    forward,
                },
            },
            HostOpClass::Library,
        );
        Ok(())
    }

    /// `cudnnPoolingForward` / backward.
    pub fn cudnn_pooling(
        &mut self,
        handle: CudnnHandle,
        numel: u64,
        window: u64,
        forward: bool,
    ) -> CudaResult<()> {
        let state = *self.cudnn.get(handle.0).ok_or(CudaError::NotInitialized)?;
        let s = self.check_stream(state.stream)?;
        self.record(
            s,
            &DeviceOp::KernelLaunch {
                kernel: KernelKind::Pool {
                    numel,
                    window,
                    forward,
                },
            },
            HostOpClass::Library,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maya_hw::GpuSpec;

    #[test]
    fn conv_descriptor_drives_kernel_metadata() {
        let mut c = CudaContext::new(0, GpuSpec::a40());
        let h = c.cudnn_create();
        let d = c
            .cudnn_create_conv_descriptor(32, 64, 56, 56, 128, 3, 1, Dtype::Fp32)
            .unwrap();
        c.cudnn_convolution_forward(h, d).unwrap();
        c.cudnn_convolution_backward_data(h, d).unwrap();
        c.cudnn_convolution_backward_filter(h, d).unwrap();
        let t = c.into_trace();
        let names: Vec<&str> = t.events.iter().map(|e| e.op.name()).collect();
        assert_eq!(
            names,
            vec![
                "cudnnConvolutionForward",
                "cudnnConvolutionBackwardData",
                "cudnnConvolutionBackwardFilter"
            ]
        );
        match t.events[0].op.as_kernel().unwrap() {
            KernelKind::ConvForward { n, c: ch, k, .. } => {
                assert_eq!((*n, *ch, *k), (32, 64, 128));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uninitialized_descriptor_flagged() {
        let mut c = CudaContext::new(0, GpuSpec::a40());
        let h = c.cudnn_create();
        let bogus = CudnnConvDesc(31337);
        assert_eq!(
            c.cudnn_convolution_forward(h, bogus),
            Err(CudaError::InvalidResourceHandle)
        );
    }

    #[test]
    fn destroyed_descriptor_flagged() {
        let mut c = CudaContext::new(0, GpuSpec::a40());
        let h = c.cudnn_create();
        let d = c
            .cudnn_create_conv_descriptor(1, 3, 8, 8, 8, 3, 1, Dtype::Fp32)
            .unwrap();
        c.cudnn_destroy_conv_descriptor(d).unwrap();
        assert_eq!(
            c.cudnn_convolution_forward(h, d),
            Err(CudaError::InvalidResourceHandle)
        );
    }

    #[test]
    fn zero_sized_descriptor_invalid() {
        let mut c = CudaContext::new(0, GpuSpec::a40());
        assert_eq!(
            c.cudnn_create_conv_descriptor(0, 3, 8, 8, 8, 3, 1, Dtype::Fp32),
            Err(CudaError::InvalidValue)
        );
    }
}
