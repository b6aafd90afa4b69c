//! Simulated time, represented as integer nanoseconds.
//!
//! Integer nanoseconds (rather than `f64` seconds) keep the simulation
//! bit-deterministic under `max`/`add` clock updates made in whatever
//! order the host schedules the processors: additions commute exactly,
//! so the per-processor clocks are independent of that order.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from microseconds (the unit the cost model is expressed in).
    /// Rounds to the nearest nanosecond; deterministic for a given input.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        SimTime((us * 1e3).round() as u64)
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_us_rounds_to_ns() {
        assert_eq!(SimTime::from_us(1.0), SimTime(1_000));
        assert_eq!(SimTime::from_us(0.0004), SimTime(0));
        assert_eq!(SimTime::from_us(0.0006), SimTime(1));
        assert_eq!(SimTime::from_us(1_000_000.0), SimTime(1_000_000_000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime(5);
        let b = SimTime(3);
        assert_eq!(a + b, SimTime(8));
        assert_eq!(a - b, SimTime(2));
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let total: SimTime = [a, b, SimTime(2)].into_iter().sum();
        assert_eq!(total, SimTime(10));
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(SimTime(1_500_000_000).to_string(), "1.500s");
    }

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_us(123.456);
        assert_eq!(t.as_ns(), 123_456);
        assert_eq!(SimTime(t.as_ns()), t);
    }
}
