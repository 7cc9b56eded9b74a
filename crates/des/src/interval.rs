//! Measurement-interval sizing from departure-process statistics (§5).
//!
//! "Taking the departures as a stochastic process and assuming
//! stationarity, it is possible to calculate the necessary duration of
//! measurements to estimate the throughput with a given accuracy and for
//! a given confidence level [Heiss, 1988]. This interval length clearly
//! depends on the parameters of the departure process, especially its
//! second moments."
//!
//! For a stationary departure process with rate `λ` and squared
//! coefficient of variation `c²` of the interdeparture times, the count
//! over a window `T` is asymptotically normal with `Var N(T) ≈ c²·λ·T`
//! (renewal central limit theorem). The throughput estimate `X̂ = N(T)/T`
//! then has relative confidence half-width `z·√(c²/(λT))`, so holding it
//! below `ε` requires
//!
//! ```text
//! λT ≥ z²·c²/ε²      (departures per interval)
//! T  ≥ z²·c²/(ε²·λ)  (interval length)
//! ```
//!
//! For a Poisson-like departure stream (`c² = 1`) at 95% confidence and
//! ±10% accuracy this gives `λT ≥ (1.96/0.1)² ≈ 384` — the paper's
//! "rather hundreds of departures than some tens" made precise.
//!
//! [`DispersionEstimator`] feeds the formula from per-interval
//! `(count, length)` pairs alone, the data a runtime sampler already
//! has, estimating `c²` as the index of dispersion `Var N / E N`.

use crate::stats::ConfidenceLevel;

/// The two-sided standard-normal quantile backing a confidence level.
fn z_quantile(level: ConfidenceLevel) -> f64 {
    match level {
        ConfidenceLevel::P90 => 1.645,
        ConfidenceLevel::P95 => 1.960,
        ConfidenceLevel::P99 => 2.576,
    }
}

/// Departures one interval must contain so the throughput estimate has
/// relative half-width ≤ `rel_accuracy` at the given confidence, for a
/// departure process with squared coefficient of variation `scv`.
pub fn required_departures(scv: f64, rel_accuracy: f64, level: ConfidenceLevel) -> f64 {
    assert!(scv >= 0.0, "scv must be non-negative");
    assert!(
        rel_accuracy > 0.0,
        "relative accuracy must be positive (e.g. 0.1 for ±10%)"
    );
    let z = z_quantile(level);
    (z / rel_accuracy).powi(2) * scv
}

/// Interval length (ms) implied by [`required_departures`] at departure
/// rate `rate_per_ms`. Infinite when the rate is zero.
fn required_duration_ms(
    rate_per_ms: f64,
    scv: f64,
    rel_accuracy: f64,
    level: ConfidenceLevel,
) -> f64 {
    assert!(rate_per_ms >= 0.0);
    if rate_per_ms == 0.0 {
        return f64::INFINITY;
    }
    required_departures(scv, rel_accuracy, level) / rate_per_ms
}

/// Interval-level estimator of the departure process from per-interval
/// `(count, length)` pairs — the only data a harvest-based sampler has.
///
/// For a stationary process, `E N(T) = λT` and `Var N(T) ≈ c²λT`, so the
/// per-interval standardized residuals `(N − λ̂T)² / (λ̂T)` average to `c²`
/// (a χ²-style index-of-dispersion estimate). Intervals of unequal length
/// are handled by that normalization.
#[derive(Debug, Clone, Default)]
pub struct DispersionEstimator {
    total_count: f64,
    total_ms: f64,
    /// `(count, length)` history for the dispersion pass; bounded.
    history: std::collections::VecDeque<(f64, f64)>,
    max_history: usize,
}

impl DispersionEstimator {
    /// Default bound on retained intervals.
    pub const DEFAULT_MAX_HISTORY: usize = 256;

    /// Creates an estimator remembering at most `max_history` intervals.
    pub fn new(max_history: usize) -> Self {
        assert!(max_history >= 2);
        DispersionEstimator {
            total_count: 0.0,
            total_ms: 0.0,
            history: std::collections::VecDeque::with_capacity(max_history),
            max_history,
        }
    }

    /// Records one closed measurement interval.
    pub fn observe(&mut self, departures: u64, interval_ms: f64) {
        if interval_ms <= 0.0 {
            return;
        }
        if self.history.len() == self.max_history {
            if let Some((c, t)) = self.history.pop_front() {
                self.total_count -= c;
                self.total_ms -= t;
            }
        }
        let c = departures as f64;
        self.history.push_back((c, interval_ms));
        self.total_count += c;
        self.total_ms += interval_ms;
    }

    /// Intervals currently in the window.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when no intervals have been observed.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Estimated departure rate (per ms) over the retained window.
    fn rate_per_ms(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.total_count / self.total_ms
        }
    }

    /// Index-of-dispersion estimate of `c²`; 1 until enough data arrived.
    pub fn scv(&self) -> f64 {
        let rate = self.rate_per_ms();
        if self.history.len() < 2 || rate <= 0.0 {
            return 1.0;
        }
        let mut acc = 0.0;
        let mut used = 0usize;
        for &(c, t) in &self.history {
            let expected = rate * t;
            if expected > 0.0 {
                acc += (c - expected) * (c - expected) / expected;
                used += 1;
            }
        }
        if used < 2 {
            1.0
        } else {
            acc / (used - 1) as f64
        }
    }

    /// The §5 interval length for this process at the given accuracy and
    /// confidence.
    pub fn required_interval_ms(&self, rel_accuracy: f64, level: ConfidenceLevel) -> f64 {
        required_duration_ms(self.rate_per_ms(), self.scv(), rel_accuracy, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    #[test]
    fn poisson_needs_hundreds_of_departures() {
        // c² = 1, ±10%, 95% → (1.96/0.1)² ≈ 384: "rather hundreds of
        // departures than some tens".
        let m = required_departures(1.0, 0.1, ConfidenceLevel::P95);
        assert!((m - 384.16).abs() < 0.1, "{m}");
        // Tens suffice only for very loose accuracy.
        let loose = required_departures(1.0, 0.3, ConfidenceLevel::P90);
        assert!(loose < 31.0, "{loose}");
    }

    #[test]
    fn required_departures_scales_with_scv_and_accuracy() {
        let base = required_departures(1.0, 0.1, ConfidenceLevel::P95);
        assert!((required_departures(2.0, 0.1, ConfidenceLevel::P95) - 2.0 * base).abs() < 1e-9);
        assert!(
            (required_departures(1.0, 0.05, ConfidenceLevel::P95) - 4.0 * base).abs() < 1e-6
        );
        assert!(required_departures(1.0, 0.1, ConfidenceLevel::P99) > base);
    }

    #[test]
    fn required_duration_inverts_rate() {
        let d = required_duration_ms(0.5, 1.0, 0.1, ConfidenceLevel::P95);
        let m = required_departures(1.0, 0.1, ConfidenceLevel::P95);
        assert!((d - m / 0.5).abs() < 1e-9);
        assert_eq!(
            required_duration_ms(0.0, 1.0, 0.1, ConfidenceLevel::P95),
            f64::INFINITY
        );
    }

    #[test]
    fn dispersion_estimator_on_poisson_counts() {
        // Poisson counts over equal intervals: dispersion index ≈ 1.
        let mut rng = RngStream::from_seed(7);
        let mut d = DispersionEstimator::new(DispersionEstimator::DEFAULT_MAX_HISTORY);
        for _ in 0..200 {
            // Sample Poisson(100) via exponential gaps in a unit window.
            let mut count = 0u64;
            let mut t = -(1.0 - rng.uniform01()).ln();
            while t < 100.0 {
                count += 1;
                t += -(1.0 - rng.uniform01()).ln();
            }
            d.observe(count, 1000.0); // rate 0.1/ms
        }
        assert!((d.rate_per_ms() - 0.1).abs() < 0.005, "{}", d.rate_per_ms());
        assert!((d.scv() - 1.0).abs() < 0.3, "{}", d.scv());
    }

    #[test]
    fn dispersion_estimator_detects_overdispersion() {
        // Alternating feast/famine counts are overdispersed: c² >> 1.
        let mut d = DispersionEstimator::new(64);
        for i in 0..64 {
            let count = if i % 2 == 0 { 200 } else { 0 };
            d.observe(count, 1000.0);
        }
        assert!(d.scv() > 50.0, "{}", d.scv());
        // And the required interval stretches accordingly.
        let poisson = required_duration_ms(0.1, 1.0, 0.1, ConfidenceLevel::P95);
        assert!(d.required_interval_ms(0.1, ConfidenceLevel::P95) > 20.0 * poisson);
    }

    #[test]
    fn dispersion_estimator_bounds_history() {
        let mut d = DispersionEstimator::new(8);
        for _ in 0..100 {
            d.observe(10, 100.0);
        }
        assert_eq!(d.len(), 8);
        assert!((d.rate_per_ms() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn dispersion_estimator_handles_unequal_intervals() {
        // Perfectly proportional counts over unequal windows: c² ≈ 0.
        let mut d = DispersionEstimator::new(64);
        for i in 1..=32 {
            let t = 500.0 + f64::from(i % 4) * 250.0;
            d.observe((0.2 * t) as u64, t);
        }
        assert!(d.scv() < 0.05, "{}", d.scv());
    }
}
