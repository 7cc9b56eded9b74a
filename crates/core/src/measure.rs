//! Measurements and performance indicators.
//!
//! Once per measurement interval `[tᵢ, tᵢ₊₁)` the system reports what it
//! observed; the controller turns that into a new MPL bound. §6 of the
//! paper compares candidate overload indicators and settles on throughput
//! ("the most significant indicator", i.e. the most distinct extremum);
//! the other indicators remain available both for the `sec6` reproduction
//! experiment and for users whose goals differ (e.g. response-time SLOs).

/// One interval's worth of observations, the controller's only input —
/// the approach is deliberately model-independent (§3: "we are not
/// concerned about any internal details of the system").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// End of the measurement interval, milliseconds of system time.
    pub at_ms: f64,
    /// Interval length in milliseconds.
    pub interval_ms: f64,
    /// The performance index `P(tᵢ)` the controller optimizes (already
    /// evaluated through a [`PerfIndicator`]).
    pub performance: f64,
    /// Time-averaged observed concurrency level `n(tᵢ)` over the interval.
    pub observed_mpl: f64,
    /// Committed transactions in the interval (`departures`).
    pub departures: u64,
    /// Aborted/restarted runs in the interval.
    pub aborts: u64,
    /// Mean data-contention conflicts per committed transaction — the
    /// quantity Iyer's rule of thumb bounds.
    pub conflicts_per_txn: f64,
    /// Mean response time of transactions committing in the interval, ms.
    pub mean_response_ms: f64,
}

impl Measurement {
    /// A minimal measurement carrying only what IS/PA strictly need:
    /// timestamp, interval, performance and observed MPL. The remaining
    /// fields are zeroed; use the full struct literal when they matter.
    pub fn basic(at_ms: f64, interval_ms: f64, performance: f64, observed_mpl: f64) -> Self {
        Measurement {
            at_ms,
            interval_ms,
            performance,
            observed_mpl,
            departures: 0,
            aborts: 0,
            conflicts_per_txn: 0.0,
            mean_response_ms: 0.0,
        }
    }

    /// Throughput in transactions per second implied by the departure count.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.interval_ms <= 0.0 {
            0.0
        } else {
            self.departures as f64 * 1000.0 / self.interval_ms
        }
    }

    /// Fraction of runs that aborted in the interval.
    pub fn abort_ratio(&self) -> f64 {
        let total = self.departures + self.aborts;
        if total == 0 {
            0.0
        } else {
            self.aborts as f64 / total as f64
        }
    }
}

/// The candidate overload indicators compared in §6 of the paper. All are
/// "larger is better" so every controller can maximize uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfIndicator {
    /// Committed transactions per second — the paper's choice: "the
    /// throughput T turned out to be the most significant indicator".
    Throughput,
    /// Reciprocal of mean response time (1/ms); falls off both in
    /// underload (idle) — no — it is monotone decreasing in load, giving a
    /// less distinct extremum; kept for the §6 comparison.
    InverseResponseTime,
    /// Throughput degraded by the abort ratio: commits/s × (1 − abort
    /// ratio). Punishes wasted work twice, sharpening the thrashing side.
    EffectiveThroughput,
    /// Negated conflicts per transaction, the signal Iyer's rule watches.
    NegatedConflictRate,
}

impl PerfIndicator {
    /// Evaluates the indicator on an interval's raw statistics.
    pub fn evaluate(&self, m: &Measurement) -> f64 {
        match self {
            PerfIndicator::Throughput => m.throughput_per_sec(),
            PerfIndicator::InverseResponseTime => {
                if m.mean_response_ms > 0.0 {
                    1000.0 / m.mean_response_ms
                } else {
                    0.0
                }
            }
            PerfIndicator::EffectiveThroughput => {
                m.throughput_per_sec() * (1.0 - m.abort_ratio())
            }
            PerfIndicator::NegatedConflictRate => -m.conflicts_per_txn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measurement {
        Measurement {
            at_ms: 1000.0,
            interval_ms: 500.0,
            performance: 0.0,
            observed_mpl: 42.0,
            departures: 100,
            aborts: 25,
            conflicts_per_txn: 0.5,
            mean_response_ms: 200.0,
        }
    }

    #[test]
    fn throughput_per_sec() {
        // 100 departures in 0.5 s => 200/s.
        assert!((sample().throughput_per_sec() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_zero_interval() {
        let mut m = sample();
        m.interval_ms = 0.0;
        assert_eq!(m.throughput_per_sec(), 0.0);
    }

    #[test]
    fn abort_ratio() {
        assert!((sample().abort_ratio() - 0.2).abs() < 1e-12);
        let mut m = sample();
        m.departures = 0;
        m.aborts = 0;
        assert_eq!(m.abort_ratio(), 0.0);
    }

    #[test]
    fn indicator_throughput() {
        assert!((PerfIndicator::Throughput.evaluate(&sample()) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn indicator_inverse_response() {
        assert!((PerfIndicator::InverseResponseTime.evaluate(&sample()) - 5.0).abs() < 1e-12);
        let mut m = sample();
        m.mean_response_ms = 0.0;
        assert_eq!(PerfIndicator::InverseResponseTime.evaluate(&m), 0.0);
    }

    #[test]
    fn indicator_effective_throughput() {
        let v = PerfIndicator::EffectiveThroughput.evaluate(&sample());
        assert!((v - 160.0).abs() < 1e-12);
    }

    #[test]
    fn indicator_negated_conflicts() {
        assert_eq!(PerfIndicator::NegatedConflictRate.evaluate(&sample()), -0.5);
    }

    #[test]
    fn basic_constructor_zeroes_extras() {
        let m = Measurement::basic(1.0, 2.0, 3.0, 4.0);
        assert_eq!(m.departures, 0);
        assert_eq!(m.conflicts_per_txn, 0.0);
        assert_eq!(m.performance, 3.0);
        assert_eq!(m.observed_mpl, 4.0);
    }
}
