//! Simulation time.
//!
//! Time is measured in milliseconds held in an `f64`. A dedicated newtype
//! keeps the unit visible in signatures and lets us give time a total order
//! (plain `f64` is only `PartialOrd`), which the event calendar requires.
//! `NaN` times are rejected at construction, so the `Ord` implementation is
//! sound for every value that can exist.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct SimTime(f64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time value. Panics on `NaN` or negative input — both
    /// indicate a modelling bug, never a legitimate state.
    #[inline]
    pub fn new(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "SimTime must be finite and non-negative, got {millis}"
        );
        SimTime(millis)
    }

    /// The raw value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0
    }

    /// The value converted to seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0 / 1000.0
    }

    /// Elapsed time since `earlier`. Panics if `earlier` is in the future —
    /// the simulator never asks for negative spans.
    #[inline]
    fn since(self, earlier: SimTime) -> f64 {
        debug_assert!(
            self.0 >= earlier.0,
            "since() called with a later time: {} < {}",
            self.0,
            earlier.0
        );
        self.0 - earlier.0
    }
}

impl Eq for SimTime {}

// SimTime is never NaN (enforced in `new` and `Add`), so total order is safe.
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd<f64> for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &f64) -> Option<std::cmp::Ordering> {
        self.0.partial_cmp(other)
    }
}

impl PartialEq<f64> for SimTime {
    #[inline]
    fn eq(&self, other: &f64) -> bool {
        self.0 == *other
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    /// Advances time by `delta` milliseconds.
    #[inline]
    fn add(self, delta: f64) -> SimTime {
        SimTime::new(self.0 + delta)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, delta: f64) {
        *self = *self + delta;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;

    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::new(1500.0);
        assert_eq!(t.millis(), 1500.0);
        assert_eq!(t.seconds(), 1.5);
        assert_eq!(SimTime::ZERO.millis(), 0.0);
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Less);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(10.0) + 5.0;
        assert_eq!(t.millis(), 15.0);
        assert_eq!(t - SimTime::new(10.0), 5.0);
        assert_eq!(t.since(SimTime::new(5.0)), 10.0);
        let mut u = SimTime::ZERO;
        u += 3.0;
        assert_eq!(u.millis(), 3.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        SimTime::new(-1.0);
    }

    #[test]
    fn comparison_with_raw_f64() {
        let t = SimTime::new(7.0);
        assert!(t > 6.5);
        assert!(t == 7.0);
    }

    #[test]
    fn min_max_and_clone_semantics() {
        let a = SimTime::new(1.0);
        let b = a;
        assert_eq!(a, b);
        assert_eq!(a.min(SimTime::new(0.5)), SimTime::new(0.5));
    }
}
