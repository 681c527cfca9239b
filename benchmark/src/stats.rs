//! Sample statistics and the machine-speed calibration every reported
//! host time is divided by.
//!
//! This container's speed steps between modes up to 25 % apart that last
//! tens of seconds (no steal time shows; core frequency or a busy
//! sibling core are the likely causes) — longer than a run, so more
//! samples do not average them out. A fixed kernel that lives in this
//! file — and so never changes when the code under test does — is timed
//! next to every sample, and the sample is divided by a damped ratio of
//! the kernel's time to its nominal time.
//!
//! Damped, because only the core-bound part of a sample follows core
//! speed. Over 400 samples of `sim_contended_32` (all compute) block
//! medians of the raw wall ranged 0.276–0.349 s and of the fully
//! calibrated wall ±1.5 %; but in a 10-minute run interleaving the three
//! prediction workloads the kernel ran 20 % fast for a minute while the
//! workloads, which also wait on memory, ran 8 % fast. There the range of
//! 30-sample block medians was 12–16 % raw, 12–14 % fully calibrated and
//! 5–9 % at a damping of 0.75, which also keeps the all-compute case
//! within ±3 %.

use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The calibration kernel's wall time on the container the benchmark
/// was written on, in its fast mode. Calibrated times therefore read
/// as "seconds on that machine at that speed".
pub const CALIBRATION_NOMINAL_S: f64 = 0.0025;

/// Median of `values` (sorts them). `NaN` when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Zero-based rank, in a sorted sample of `n`, of the highest
/// percentile no greater than the 99th that still has at least ten
/// samples beyond it; never below the median's rank, so a small sample
/// degrades to its median.
pub fn tail_rank(n: usize) -> usize {
    assert!(n > 0, "tail_rank of an empty sample");
    let p99 = (n * 99).div_ceil(100).saturating_sub(1);
    p99.min(n.saturating_sub(11)).max(n / 2)
}

/// The tail statistic of `values` under [`tail_rank`] (sorts them),
/// with the percentile it stands for.
pub fn tail(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let rank = tail_rank(values.len());
    let percentile = 100.0 * (rank + 1) as f64 / values.len() as f64;
    (values[rank], percentile)
}

/// One pass of the calibration kernel: heap churn, hash-map probes and
/// float math over an L2-resident working set — the instruction mix of
/// the simulator and the memo, in miniature. Returns its wall seconds.
fn calibration_kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut map: HashMap<u64, f64> = HashMap::with_capacity(8192);
    let mut acc = 0.0f64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 20));
        if heap.len() > 2048 {
            if let Some(std::cmp::Reverse(v)) = heap.pop() {
                acc += (v as f64).sqrt();
            }
        }
        *map.entry(x & 8191).or_insert(0.0) += (i as f64).ln_1p();
    }
    std::hint::black_box((acc, map.len(), heap.len()));
    t.elapsed().as_secs_f64()
}

/// The share of a change in kernel time that is passed on to samples
/// (see the module docs for the measurements behind it).
pub const CALIBRATION_DAMPING: f64 = 0.75;

/// Kernel passes per reading: the median of five shrugs off a pass that
/// an interrupt or a cold core stretched.
const PASSES: usize = 5;

/// The factor a sample taken now is divided by: 1.0 at nominal machine
/// speed, `1 + 0.75 × 0.2` when the kernel (median of five passes, about
/// 13 ms) runs a fifth slower than nominal.
pub fn speed_factor() -> f64 {
    let mut passes = [0.0; PASSES];
    passes.fill_with(calibration_kernel);
    damped(median(&mut passes))
}

fn damped(kernel_s: f64) -> f64 {
    1.0 + CALIBRATION_DAMPING * (kernel_s / CALIBRATION_NOMINAL_S - 1.0)
}

/// The kernel time, in seconds, that yields `factor`: lets a reader turn
/// a calibrated time back into the raw one.
pub fn kernel_seconds(factor: f64) -> f64 {
    CALIBRATION_NOMINAL_S * (1.0 + (factor - 1.0) / CALIBRATION_DAMPING)
}

/// Runs `f` and returns its result with its raw wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // Small samples degrade to the median.
        assert_eq!(tail_rank(1), 0);
        assert_eq!(tail_rank(12), 6);
        assert_eq!(tail_rank(21), 10);
        // From 22 samples on, exactly ten lie beyond the chosen rank.
        for n in [22, 30, 45, 100, 999] {
            let r = tail_rank(n);
            assert_eq!(n - 1 - r, 10, "n={n}");
        }
        // Capped at the 99th percentile once that leaves ten beyond.
        assert_eq!(tail_rank(1100), 1088);
        assert_eq!(tail_rank(16_000), 15_839);
        assert_eq!(16_000 - 1 - tail_rank(16_000), 160);
    }

    #[test]
    fn tail_reports_value_and_percentile() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        v.reverse();
        let (value, pct) = tail(&mut v);
        assert_eq!(value, 1980.0);
        assert!((pct - 99.0).abs() < 1e-9);
        let mut small = vec![5.0, 1.0, 3.0];
        assert_eq!(tail(&mut small).0, 3.0);
    }

    #[test]
    fn damping_passes_on_three_quarters_of_a_slowdown() {
        assert_eq!(damped(CALIBRATION_NOMINAL_S), 1.0);
        assert!((damped(CALIBRATION_NOMINAL_S * 1.2) - 1.15).abs() < 1e-12);
        assert!((damped(CALIBRATION_NOMINAL_S * 0.8) - 0.85).abs() < 1e-12);
        let k = CALIBRATION_NOMINAL_S * 1.3;
        assert!((kernel_seconds(damped(k)) - k).abs() < 1e-15);
    }

    #[test]
    fn speed_factor_is_positive_and_finite() {
        let f = speed_factor();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }

    #[test]
    fn peak_rss_reads() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
