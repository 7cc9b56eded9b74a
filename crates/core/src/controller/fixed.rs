//! The non-adaptive baselines of §1.
//!
//! * [`Unlimited`] — solution 1, "do nothing": no admission limit at all.
//!   With it the simulator reproduces the uncontrolled thrashing curve of
//!   Figure 12 ("without control").
//! * [`FixedBound`] — solution 2, the static MPL knob "that is tuned by
//!   the system administrator when the system is installed or started up
//!   … usually found in commercial database systems". Right until the
//!   workload moves.

use super::LoadController;
use crate::measure::Measurement;

/// No load control: the bound is permanently `u32::MAX`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unlimited;

impl LoadController for Unlimited {
    fn update(&mut self, _m: &Measurement) -> u32 {
        u32::MAX
    }

    fn current_bound(&self) -> u32 {
        u32::MAX
    }
}

/// A static MPL bound fixed at construction.
#[derive(Debug, Clone, Copy)]
pub struct FixedBound(u32);

impl FixedBound {
    /// Creates a fixed bound; panics on zero (a zero MPL admits nothing,
    /// which is never what an operator means).
    pub fn new(bound: u32) -> Self {
        assert!(bound >= 1, "a fixed MPL bound must admit at least one txn");
        FixedBound(bound)
    }
}

impl LoadController for FixedBound {
    fn update(&mut self, _m: &Measurement) -> u32 {
        self.0
    }

    fn current_bound(&self) -> u32 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_limits() {
        let mut c = Unlimited;
        let m = Measurement::basic(0.0, 1.0, 0.0, 0.0);
        assert_eq!(c.update(&m), u32::MAX);
        assert_eq!(c.current_bound(), u32::MAX);
    }

    #[test]
    fn fixed_stays_fixed() {
        let mut c = FixedBound::new(64);
        let m = Measurement::basic(0.0, 1.0, 123.0, 99.0);
        for _ in 0..5 {
            assert_eq!(c.update(&m), 64);
        }
        assert_eq!(c.current_bound(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn fixed_rejects_zero() {
        FixedBound::new(0);
    }
}
