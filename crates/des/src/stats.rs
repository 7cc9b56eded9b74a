//! Online statistics for simulation output analysis.
//!
//! The controller side of the paper rests on estimating throughput and
//! related quantities from finite measurement intervals (§5: the interval
//! must be long enough to filter stochastic noise — "rather hundreds of
//! departures than some tens" — but no longer, to stay responsive). These
//! are the two running means the engine keeps: response times per
//! interval, and time-weighted levels such as the MPL.

use crate::time::SimTime;

/// Welford's online mean accumulator: the running mean without the sum
/// that loses precision over a long run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
}

impl Welford {
    /// Adds an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// transactions in the system. Push a new value whenever the signal changes.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    area: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            last_v: v0,
            area: 0.0,
            start: t0,
        }
    }

    /// Records that the signal changed to `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        self.area += self.last_v * (t - self.last_t);
        self.last_t = t;
        self.last_v = v;
    }

    /// The time average over `[start, t]`.
    pub fn average(&self, t: SimTime) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return self.last_v;
        }
        (self.area + self.last_v * (t - self.last_t)) / span
    }

    /// Restarts averaging from time `t`, keeping the current value.
    pub fn reset(&mut self, t: SimTime) {
        self.area = 0.0;
        self.start = t;
        self.last_t = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::default();
        assert_eq!(w.mean(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
    }

    #[test]
    fn time_weighted_average() {
        let t = |ms| SimTime::new(ms);
        let mut tw = TimeWeighted::new(t(0.0), 2.0);
        tw.set(t(10.0), 4.0); // 2.0 held for 10ms
        tw.set(t(30.0), 0.0); // 4.0 held for 20ms
        // average over [0, 40]: (2*10 + 4*20 + 0*10)/40 = 100/40
        assert!((tw.average(t(40.0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset() {
        let t = |ms| SimTime::new(ms);
        let mut tw = TimeWeighted::new(t(0.0), 1.0);
        tw.set(t(10.0), 5.0);
        tw.reset(t(10.0));
        // After reset only the value 5.0 over [10,20] counts.
        assert!((tw.average(t(20.0)) - 5.0).abs() < 1e-12);
    }
}
