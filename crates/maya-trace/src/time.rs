//! Integer-nanosecond time type used throughout the simulator stack.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as integer nanoseconds.
///
/// A single type is used for both instants and durations, mirroring how the
/// discrete-event simulator in the paper advances a scalar clock
/// (Algorithm 1). Arithmetic saturates on underflow so that ill-ordered
/// subtractions surface as zero rather than panicking inside the simulator.
///
/// # Examples
///
/// ```
/// use maya_trace::SimTime;
/// let t = SimTime::from_us(3.0) + SimTime::from_us(2.0);
/// assert_eq!(t.as_us(), 5.0);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds a time from fractional microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        SimTime(round_ns(us * 1e3))
    }

    /// Builds a time from fractional milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        SimTime(round_ns(ms * 1e6))
    }

    /// Builds a time from fractional seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        SimTime(round_ns(s * 1e9))
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; never underflows.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Scales the time by a dimensionless factor, rounding to nanoseconds.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime(round_ns(self.0 as f64 * factor))
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

/// `ns.max(0.0).round() as u64` — negatives and NaN to zero, halves
/// away from zero, saturating — without `f64::round`, which baseline
/// x86-64 has no instruction for and calls libm once per recorded event
/// (`ModelClock::charge`). The cast truncates and saturates; what it
/// dropped is exact in `f64` wherever it is not zero.
#[inline]
fn round_ns(ns: f64) -> u64 {
    let ns = ns.max(0.0);
    let whole = ns as u64;
    whole.saturating_add(u64::from(ns - whole as f64 >= 0.5))
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs.max(1))
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_us(1.0).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(1.0).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_secs(1.0).as_ns(), 1_000_000_000);
        assert!((SimTime::from_ms(2.5).as_ms() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn rounding_is_f64_round_everywhere() {
        let libm = |x: f64| x.max(0.0).round() as u64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            0.5,
            -0.5,
            -1.5,
            -1e300,
            (1u64 << 52) as f64 - 1.0,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64 + 1.0,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
            u64::MAX as f64,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::EPSILON,
        ];
        for k in 0..4096u32 {
            let half = f64::from(k) + 0.5;
            let bits = half.to_bits();
            cases.extend([half, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
        }
        // 10⁶ seeded values over every magnitude a time can have.
        let mut x = 0x5EED_u64;
        for _ in 0..1_000_000 {
            x = crate::signature::splitmix64(x);
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            cases.push(mantissa * 2f64.powi((x & 63) as i32 + 1));
        }
        for x in cases {
            assert_eq!(round_ns(x), libm(x), "{x:e}");
            // The constructors are the same function after an exact scaling.
            assert_eq!(SimTime::from_ns(1).scale(x), SimTime(libm(x)), "{x:e}");
        }
        assert_eq!(SimTime::from_us(2.0004999), SimTime(2_000));
        assert_eq!(
            SimTime::from_us(2.0005),
            SimTime((2.0005f64 * 1e3).round() as u64)
        );
        assert_eq!(SimTime::from_ms(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_ns(4));
        assert_eq!(SimTime::MAX + a, SimTime::MAX);
    }

    #[test]
    fn scaling_and_ordering() {
        let t = SimTime::from_us(10.0);
        assert_eq!(t.scale(2.0), SimTime::from_us(20.0));
        assert_eq!(t.scale(0.5), SimTime::from_us(5.0));
        assert_eq!(t.max(SimTime::from_us(3.0)), t);
        assert_eq!(t.min(SimTime::from_us(3.0)), SimTime::from_us(3.0));
    }

    #[test]
    fn sum_and_display() {
        let total: SimTime = [1.0, 2.0, 3.0].iter().map(|&u| SimTime::from_us(u)).sum();
        assert_eq!(total, SimTime::from_us(6.0));
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(12.0)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500s");
    }
}
