//! Deterministic hash-based noise used by the ground-truth models.
//!
//! The "real hardware" must behave like hardware: the same kernel always
//! takes (almost) the same time, but the mapping from operand shapes to
//! runtime has microarchitectural texture a smooth analytical model does
//! not capture. We generate that texture with splitmix64-seeded
//! perturbations, so the whole testbed is reproducible from a seed.

// The mixing function and the key chain are the kernel shape digest's
// and the host clock's too, so they live with the digest.
pub use maya_trace::signature::{mix, splitmix64, Key};

/// Uniform value in `[0, 1)` derived from a hash.
pub fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Centered perturbation factor in `[1 - amplitude, 1 + amplitude]`.
///
/// Deterministic in `hash`; used for per-shape microarchitectural texture
/// and per-instance jitter.
pub fn centered_factor(hash: u64, amplitude: f64) -> f64 {
    1.0 + amplitude * (2.0 * unit(hash) - 1.0)
}

/// Approximately-Gaussian factor `1 + sigma * z` built from 4 uniform
/// draws (Irwin-Hall), clamped to stay positive.
pub fn gaussian_factor(hash: u64, sigma: f64) -> f64 {
    let mut acc = 0.0;
    let mut h = hash;
    for _ in 0..4 {
        h = splitmix64(h);
        acc += unit(h);
    }
    // Irwin-Hall(4): mean 2.0, variance 4/12; normalize to ~N(0,1).
    let z = (acc - 2.0) / (4.0f64 / 12.0).sqrt();
    (1.0 + sigma * z).max(0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_eq!(
            Key::new(1).with(2).with(3).finish(),
            Key::new(1).with(2).with(3).finish()
        );
        assert_ne!(Key::new(1).with(2).finish(), Key::new(1).with(3).finish());
    }

    #[test]
    fn unit_in_range() {
        for i in 0..1000u64 {
            let u = unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn centered_factor_bounds() {
        for i in 0..1000u64 {
            let f = centered_factor(splitmix64(i), 0.08);
            assert!((0.92..=1.08).contains(&f), "{f}");
        }
    }

    #[test]
    fn gaussian_factor_statistics() {
        let n = 20_000u64;
        let sigma = 0.01;
        let mean: f64 = (0..n)
            .map(|i| gaussian_factor(splitmix64(i), sigma))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean {mean}");
        let var: f64 = (0..n)
            .map(|i| {
                let f = gaussian_factor(splitmix64(i), sigma);
                (f - mean) * (f - mean)
            })
            .sum::<f64>()
            / n as f64;
        // Variance should be close to sigma^2.
        assert!(
            (var.sqrt() - sigma).abs() < sigma * 0.2,
            "std {}",
            var.sqrt()
        );
    }

    #[test]
    fn unit_is_roughly_uniform() {
        let n = 10_000u64;
        let mut buckets = [0u32; 10];
        for i in 0..n {
            let u = unit(splitmix64(i.wrapping_mul(0x9E37)));
            buckets[(u * 10.0) as usize % 10] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket {b}");
        }
    }
}
