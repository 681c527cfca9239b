//! Host-side time accounting for emulated API calls.
//!
//! The paper measures "wall-clock deltas between API calls during
//! emulation" and replays them as blocking host work in the simulator
//! (§4.2). A measured delta is different on every run, and every digest,
//! golden string and dedup class in this repo needs the same trace from
//! the same job, so the one clock here is a *model*: a per-call-class
//! dispatch cost plus deterministic jitter.

use maya_hw::noise::{centered_factor, Key};
use maya_trace::SimTime;

/// Coarse classes of host work attached to an API call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HostOpClass {
    /// Kernel or memcpy launch through the runtime API.
    KernelLaunch,
    /// Allocation / free bookkeeping.
    Memory,
    /// Event / stream management.
    Sync,
    /// cuBLAS / cuDNN library dispatch (heavier: heuristics, setup).
    Library,
    /// NCCL enqueue.
    Nccl,
    /// Framework-level host work injected by the application between API
    /// calls (Python dispatch, optimizer bookkeeping, ...).
    Framework,
}

/// Deterministic host-cost model.
///
/// Costs loosely follow measured CUDA dispatch overheads on a modern
/// server CPU (a few microseconds per launch; more for library calls that
/// run heuristics). `cpu_speed` scales everything, standing in for the
/// host hardware differences discussed in §8 ("Taxonomy of CPU
/// computation").
#[derive(Clone, Debug)]
pub struct ModelClock {
    /// Multiplier on all host costs (1.0 = reference CPU).
    pub cpu_speed: f64,
    /// Jitter amplitude (deterministic, hash-based).
    pub jitter: f64,
    /// `Key::new(seed)`: every charge extends this chain.
    key: Key,
    calls: u64,
}

impl ModelClock {
    /// Creates a model clock for a given seed.
    pub fn new(seed: u64) -> Self {
        ModelClock {
            cpu_speed: 1.0,
            jitter: 0.10,
            key: Key::new(seed),
            calls: 0,
        }
    }

    /// Base cost in microseconds for each call class.
    fn base_us(class: HostOpClass) -> f64 {
        match class {
            HostOpClass::KernelLaunch => 4.5,
            HostOpClass::Memory => 2.8,
            HostOpClass::Sync => 1.9,
            HostOpClass::Library => 7.5,
            HostOpClass::Nccl => 9.0,
            HostOpClass::Framework => 12.0,
        }
    }

    /// Time to charge for an API call of class `class`; called once per
    /// recorded operation, in program order.
    ///
    /// A direct call, deliberately not an inlined one: with this body
    /// (f64 jitter math, which then ended in libm's `round`) folded
    /// into `CudaContext::record`, a rank's emulation measured 15–25 %
    /// slower (min of 3 000 single-rank emulations, ≈ 165 → 195–210 µs);
    /// out of line it matches the virtual call it replaced.
    /// `SimTime::from_us` has rounded without libm since, and inlined
    /// or not now measures the same (≈ 119 µs a signed rank either way).
    #[inline(never)]
    pub fn charge(&mut self, class: HostOpClass) -> SimTime {
        self.calls += 1;
        let f = centered_factor(
            self.key.with(self.calls).with(class as u64).finish(),
            self.jitter,
        );
        SimTime::from_us(Self::base_us(class) * self.cpu_speed * f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_clock_is_deterministic() {
        let mut a = ModelClock::new(7);
        let mut b = ModelClock::new(7);
        for class in [
            HostOpClass::KernelLaunch,
            HostOpClass::Library,
            HostOpClass::Sync,
        ] {
            assert_eq!(a.charge(class), b.charge(class));
        }
    }

    #[test]
    fn model_clock_scales_with_cpu_speed() {
        let mut fast = ModelClock::new(7);
        let mut slow = ModelClock::new(7);
        slow.cpu_speed = 2.0;
        let tf = fast.charge(HostOpClass::KernelLaunch);
        let ts = slow.charge(HostOpClass::KernelLaunch);
        // Nanosecond rounding in `SimTime` allows a tiny deviation.
        assert!((ts.as_us() / tf.as_us() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn library_calls_cost_more_than_sync() {
        let mut c = ModelClock::new(1);
        c.jitter = 0.0;
        let lib = c.charge(HostOpClass::Library);
        let sync = c.charge(HostOpClass::Sync);
        assert!(lib > sync);
    }
}
