//! Property-based tests for the trace schema.

use maya_trace::{Dtype, KernelKind, SimTime};
use proptest::prelude::*;

proptest! {
    /// SimTime addition is commutative and monotone; subtraction never
    /// underflows.
    #[test]
    fn simtime_arithmetic(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let (x, y) = (SimTime::from_ns(a), SimTime::from_ns(b));
        prop_assert_eq!(x + y, y + x);
        prop_assert!(x + y >= x);
        prop_assert!(x - y <= x);
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!(x.max(y).min(x.min(y)), x.min(y));
    }

    /// Unit conversions agree with raw nanoseconds.
    #[test]
    fn simtime_conversions(ns in 0u64..10_000_000_000_000) {
        let t = SimTime::from_ns(ns);
        prop_assert!((t.as_secs_f64() - ns as f64 / 1e9).abs() < 1e-6);
        prop_assert!((t.as_us() - ns as f64 / 1e3).abs() < 1e-3);
        prop_assert_eq!(SimTime::from_us(t.as_us()).as_ns() as i128 - ns as i128, 0);
    }

    /// Scaling is monotone in the factor and approximately linear.
    #[test]
    fn simtime_scaling(ns in 1u64..1_000_000_000_000, f in 0.0f64..8.0) {
        let t = SimTime::from_ns(ns);
        let s = t.scale(f);
        let expected = ns as f64 * f;
        prop_assert!((s.as_ns() as f64 - expected).abs() <= expected * 1e-12 + 1.0);
        prop_assert!(t.scale(f) <= t.scale(f + 0.5));
    }

    /// GEMM flops/bytes scale as expected and every kernel has a name.
    #[test]
    fn gemm_cost_model(m in 1u64..8192, n in 1u64..8192, k in 1u64..8192) {
        let g = KernelKind::Gemm { m, n, k, dtype: Dtype::Bf16 };
        prop_assert_eq!(g.flops(), 2.0 * (m * n) as f64 * k as f64);
        let doubled = KernelKind::Gemm { m: 2 * m, n, k, dtype: Dtype::Bf16 };
        prop_assert!((doubled.flops() / g.flops() - 2.0).abs() < 1e-9);
        prop_assert!(g.bytes_accessed() > 0.0);
        prop_assert!(!g.name().is_empty());
        prop_assert!((g.family_id() as usize) < KernelKind::NUM_FAMILIES);
    }
}
