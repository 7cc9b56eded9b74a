//! Online statistics for simulation output analysis.
//!
//! The controller side of the paper rests on estimating throughput and
//! related quantities from finite measurement intervals (§5: the interval
//! must be long enough to filter stochastic noise — "rather hundreds of
//! departures than some tens" — but no longer, to stay responsive). These
//! primitives provide the estimates plus the machinery used by the
//! experiment harness to report confidence intervals.

use crate::time::SimTime;

/// Welford's online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of the `level` confidence interval for the mean, using a
    /// Student-t quantile (see [`t_quantile`]).
    pub fn ci_half_width(&self, level: ConfidenceLevel) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        t_quantile(level, self.n - 1) * self.std_err()
    }

    /// Merges another accumulator into this one (parallel batch merge).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

/// Supported confidence levels for interval estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ConfidenceLevel {
    /// 90% two-sided.
    P90,
    /// 95% two-sided.
    P95,
    /// 99% two-sided.
    P99,
}

/// Two-sided Student-t quantile for the given confidence level and degrees
/// of freedom. Table-driven for small df, normal approximation beyond.
pub fn t_quantile(level: ConfidenceLevel, df: u64) -> f64 {
    // t-table rows: df 1..=30, then selected larger values.
    const P90: &[f64] = &[
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    const P95: &[f64] = &[
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060,
        2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    const P99: &[f64] = &[
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055,
        3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787,
        2.779, 2.771, 2.763, 2.756, 2.750,
    ];
    let (table, asymptote) = match level {
        ConfidenceLevel::P90 => (P90, 1.645),
        ConfidenceLevel::P95 => (P95, 1.960),
        ConfidenceLevel::P99 => (P99, 2.576),
    };
    if df == 0 {
        return f64::INFINITY;
    }
    if (df as usize) <= table.len() {
        table[df as usize - 1]
    } else if df <= 60 {
        // Linear interpolation between df=30 and the asymptote is accurate
        // to ~1% in this range, plenty for simulation CIs.
        let t30 = table[29];
        let frac = (df - 30) as f64 / 30.0;
        t30 + (asymptote - t30) * frac.min(1.0)
    } else {
        asymptote
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// transactions in the system. Push a new value whenever the signal changes.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    area: f64,
    start: SimTime,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_t: t0,
            last_v: v0,
            area: 0.0,
            start: t0,
            peak: v0,
        }
    }

    /// Records that the signal changed to `v` at time `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        self.area += self.last_v * (t - self.last_t);
        self.last_t = t;
        self.last_v = v;
        if v > self.peak {
            self.peak = v;
        }
    }

    /// The current signal value.
    pub fn current(&self) -> f64 {
        self.last_v
    }

    /// The maximum value seen.
    pub fn peak(&self) -> f64 {
        self.peak
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
        self.peak = self.last_v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.ci_half_width(ConfidenceLevel::P95), f64::INFINITY);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn t_quantile_table_values() {
        assert!((t_quantile(ConfidenceLevel::P95, 1) - 12.706).abs() < 1e-9);
        assert!((t_quantile(ConfidenceLevel::P95, 10) - 2.228).abs() < 1e-9);
        assert!((t_quantile(ConfidenceLevel::P99, 30) - 2.750).abs() < 1e-9);
        assert_eq!(t_quantile(ConfidenceLevel::P95, 10_000), 1.960);
        assert_eq!(t_quantile(ConfidenceLevel::P90, 0), f64::INFINITY);
        // Interpolated region is between the df=30 value and the asymptote.
        let t45 = t_quantile(ConfidenceLevel::P95, 45);
        assert!(t45 < 2.042 && t45 > 1.960);
    }

    #[test]
    fn time_weighted_average() {
        let t = |ms| SimTime::new(ms);
        let mut tw = TimeWeighted::new(t(0.0), 2.0);
        tw.set(t(10.0), 4.0); // 2.0 held for 10ms
        tw.set(t(30.0), 0.0); // 4.0 held for 20ms
        // average over [0, 40]: (2*10 + 4*20 + 0*10)/40 = 100/40
        assert!((tw.average(t(40.0)) - 2.5).abs() < 1e-12);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_reset() {
        let t = |ms| SimTime::new(ms);
        let mut tw = TimeWeighted::new(t(0.0), 1.0);
        tw.set(t(10.0), 5.0);
        tw.reset(t(10.0));
        // After reset only the value 5.0 over [10,20] counts.
        assert!((tw.average(t(20.0)) - 5.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 5.0);
    }
}
