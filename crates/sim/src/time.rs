//! Virtual time in integer nanoseconds.
//!
//! All latencies in the paper are quoted in microseconds (20 µs average
//! gateway latency, 100 µs reorder timeout, 0.58 µs basic-pipeline RX stage).
//! A `u64` nanosecond counter covers ~584 years of virtual time, far beyond
//! any experiment, and keeps arithmetic exact.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Adds `ns` nanoseconds, saturating at the far future (~584 years in).
    ///
    /// This is *the* forward-arithmetic policy for virtual time, shared by
    /// every scheduling path — `Add`/`AddAssign` below,
    /// [`Engine::schedule_after`](crate::Engine::schedule_after) and
    /// [`EventScript`](crate::EventScript) replay (whose entries go through
    /// the same operators). Saturation keeps time monotone under any delay
    /// a caller can produce, so one inlined helper replaces scattered
    /// checked/unchecked adds in the hot loop.
    #[inline]
    pub const fn saturating_add_ns(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, ns: u64) -> SimTime {
        self.saturating_add_ns(ns)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, ns: u64) {
        *self = self.saturating_add_ns(ns);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_micros(100).as_nanos(), 100_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let u = t + 500;
        assert_eq!(u.as_nanos(), 10_500);
        assert_eq!(u - t, 500);
        assert_eq!(t.saturating_since(u), 0);
        assert_eq!(u.saturating_since(t), 500);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(20)), "20.00us");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_nanos(5) < SimTime::from_micros(1));
        assert_eq!(SimTime::ZERO, SimTime::from_nanos(0));
    }
}
