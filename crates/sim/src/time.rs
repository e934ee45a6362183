//! Microsecond-resolution simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of simulated time, in microseconds since simulation start.
///
/// Microsecond granularity matches the finest quantity the paper reports
/// (local instruction latencies of 60–440 µs, Fig. 12), so no measurement in
/// the reproduction loses precision to the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch, truncated.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch, as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so that indicates a harness bug.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} is after {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero when `earlier` is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to µs.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration seconds: {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Microseconds in this duration.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds, truncated.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as floating point.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Multiplies the duration by an integer scale.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimDuration::from_secs(3).as_millis(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(0.0555).as_micros(), 55_500);
        assert_eq!(SimTime::from_micros(1_500_000).as_millis(), 1_500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_micros(), 10_000);
        assert_eq!(t.since(SimTime::ZERO).as_millis(), 10);
        let mut u = t;
        u += SimDuration::from_micros(5);
        assert_eq!(u.as_micros(), 10_005);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_when_backwards() {
        SimTime::ZERO.since(SimTime::from_micros(1));
    }

    #[test]
    fn saturating_since_clamps() {
        let d = SimTime::ZERO.saturating_since(SimTime::from_micros(9));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_micros(250).to_string(), "250us");
        assert_eq!(SimDuration::from_micros(55_000).to_string(), "55.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        SimDuration::from_secs_f64(-1.0);
    }
}
