//! Building [`Measurement`]s from raw completion events.
//!
//! §5: "A general problem is the choice of an appropriate measurement
//! interval length. … we have to strike a balance between stability (not
//! to react to stochastic events ('noise')) and responsiveness (quickly
//! respond to actual changes in the workload). … an estimate should
//! comprise rather hundreds of departures than some tens."
//!
//! [`IntervalSampler`] accumulates departures/aborts/response times and is
//! harvested once per interval. [`CiInterval`] resizes the interval
//! between harvests (`observe` absorbs the latest harvest and returns the
//! next interval) by the exact §5 calculation: the throughput estimate
//! meets a target accuracy and confidence, from the measured second
//! moments of the departure process ([`alc_des::interval`]).

use alc_des::interval::DispersionEstimator;
use alc_des::stats::ConfidenceLevel;

use crate::gatelog::GateEvent;
use crate::measure::{Measurement, PerfIndicator};

/// Accumulates one interval's raw events.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    indicator: PerfIndicator,
    interval_start_ms: f64,
    departures: u64,
    aborts: u64,
    conflicts: u64,
    response_sum_ms: f64,
    mpl_area: f64,
    last_mpl_change_ms: f64,
    current_mpl: u32,
}

impl IntervalSampler {
    /// Creates a sampler evaluating the given indicator, starting at time
    /// `now_ms` with `mpl` transactions currently in the system.
    pub fn new(indicator: PerfIndicator, now_ms: f64, mpl: u32) -> Self {
        IntervalSampler {
            indicator,
            interval_start_ms: now_ms,
            departures: 0,
            aborts: 0,
            conflicts: 0,
            response_sum_ms: 0.0,
            mpl_area: 0.0,
            last_mpl_change_ms: now_ms,
            current_mpl: mpl,
        }
    }

    /// Absorbs one gate event. The control loop's telemetry window feeds
    /// through here in the simulator, the runtime and log replay alike,
    /// so a recorded stream is by construction the stream the sampler
    /// consumed. A commit counts its conflicts first, then the departure;
    /// a `Decision` is the driver's cue to harvest and carries nothing.
    #[inline]
    pub fn feed(&mut self, event: &GateEvent) {
        match *event {
            GateEvent::Mpl { at_ms, in_system } => self.on_mpl_change(at_ms, in_system),
            GateEvent::Commit {
                response_ms,
                conflicts,
                ..
            } => {
                self.on_conflicts(conflicts);
                self.on_commit(response_ms);
            }
            GateEvent::Abort { conflicts, .. } => self.on_abort(conflicts),
            GateEvent::Decision { .. } => {}
        }
    }

    /// Records that the in-system transaction count changed.
    pub fn on_mpl_change(&mut self, now_ms: f64, mpl: u32) {
        self.mpl_area += f64::from(self.current_mpl) * (now_ms - self.last_mpl_change_ms);
        self.last_mpl_change_ms = now_ms;
        self.current_mpl = mpl;
    }

    /// Records a commit with its response time (submission → commit).
    pub fn on_commit(&mut self, response_ms: f64) {
        self.departures += 1;
        self.response_sum_ms += response_ms;
    }

    /// Records an abort/restart caused by `conflicts` data conflicts.
    pub fn on_abort(&mut self, conflicts: u64) {
        self.aborts += 1;
        self.on_conflicts(conflicts);
    }

    /// Records conflicts detected at a successful commit (certification
    /// that passed but observed contention, or lock waits under 2PL).
    /// The count comes off the wire (gate logs, `Outcome::Abort`), so it
    /// saturates rather than overflows.
    fn on_conflicts(&mut self, conflicts: u64) {
        self.conflicts = self.conflicts.saturating_add(conflicts);
    }

    /// Closes the interval at `now_ms`, producing the controller's
    /// measurement, and starts the next interval.
    pub fn harvest(&mut self, now_ms: f64) -> Measurement {
        let interval_ms = (now_ms - self.interval_start_ms).max(f64::EPSILON);
        self.on_mpl_change(now_ms, self.current_mpl); // close the MPL area
        let observed_mpl = self.mpl_area / interval_ms;
        let mut m = Measurement {
            at_ms: now_ms,
            interval_ms,
            performance: 0.0,
            observed_mpl,
            departures: self.departures,
            aborts: self.aborts,
            conflicts_per_txn: if self.departures == 0 {
                self.conflicts as f64
            } else {
                self.conflicts as f64 / self.departures as f64
            },
            mean_response_ms: if self.departures == 0 {
                0.0
            } else {
                self.response_sum_ms / self.departures as f64
            },
        };
        m.performance = self.indicator.evaluate(&m);

        self.interval_start_ms = now_ms;
        self.departures = 0;
        self.aborts = 0;
        self.conflicts = 0;
        self.response_sum_ms = 0.0;
        self.mpl_area = 0.0;
        m
    }
}

/// The exact §5 interval policy: "calculate the necessary duration of
/// measurements to estimate the throughput with a given accuracy and for
/// a given confidence level", from the measured departure process.
///
/// Each harvest feeds a windowed [`DispersionEstimator`]; the next
/// interval is the length at which the throughput estimate's relative
/// confidence half-width drops to `rel_accuracy`, rate-limited (×½/×2 per
/// step) and clamped into `[min_ms, max_ms]`.
#[derive(Debug, Clone)]
pub struct CiInterval {
    /// Target relative half-width of the throughput CI (e.g. 0.1 = ±10%).
    pub rel_accuracy: f64,
    /// Confidence level of that half-width.
    pub confidence: ConfidenceLevel,
    /// Shortest allowed interval (responsiveness cap), ms.
    pub min_ms: f64,
    /// Longest allowed interval (staleness cap), ms.
    pub max_ms: f64,
    current_ms: f64,
    estimator: DispersionEstimator,
}

impl CiInterval {
    /// Creates the policy starting from `initial_ms`.
    pub fn new(
        rel_accuracy: f64,
        confidence: ConfidenceLevel,
        min_ms: f64,
        max_ms: f64,
        initial_ms: f64,
    ) -> Self {
        assert!(rel_accuracy > 0.0 && rel_accuracy < 1.0);
        assert!(min_ms > 0.0 && max_ms >= min_ms);
        assert!((min_ms..=max_ms).contains(&initial_ms));
        CiInterval {
            rel_accuracy,
            confidence,
            min_ms,
            max_ms,
            current_ms: initial_ms,
            estimator: DispersionEstimator::new(DispersionEstimator::DEFAULT_MAX_HISTORY),
        }
    }

    /// The departure-process statistics gathered so far, for inspection.
    pub fn estimator(&self) -> &DispersionEstimator {
        &self.estimator
    }

    /// The interval to use next.
    pub fn current_ms(&self) -> f64 {
        self.current_ms
    }

    /// Absorbs the latest harvest and returns the interval to use next.
    pub fn observe(&mut self, m: &Measurement) -> f64 {
        self.estimator.observe(m.departures, m.interval_ms);
        let required = self
            .estimator
            .required_interval_ms(self.rel_accuracy, self.confidence);
        let ideal = if required.is_finite() {
            // Deterministic streams (c² = 0) imply "any interval works";
            // keep the floor instead of collapsing to zero.
            required.max(self.min_ms)
        } else {
            self.current_ms * 2.0 // starved: no departures yet
        };
        let step_limited = ideal.clamp(self.current_ms * 0.5, self.current_ms * 2.0);
        self.current_ms = step_limited.clamp(self.min_ms, self.max_ms);
        self.current_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harvest_computes_throughput_and_response() {
        let mut s = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 0);
        for _ in 0..100 {
            s.on_commit(50.0);
        }
        let m = s.harvest(500.0);
        assert_eq!(m.departures, 100);
        assert!((m.throughput_per_sec() - 200.0).abs() < 1e-9);
        assert!((m.performance - 200.0).abs() < 1e-9);
        assert!((m.mean_response_ms - 50.0).abs() < 1e-9);
    }

    #[test]
    fn harvest_resets_for_next_interval() {
        let mut s = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 0);
        s.on_commit(10.0);
        s.harvest(100.0);
        let m2 = s.harvest(200.0);
        assert_eq!(m2.departures, 0);
        assert_eq!(m2.performance, 0.0);
        assert!((m2.interval_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn observed_mpl_is_time_weighted() {
        let mut s = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 10);
        s.on_mpl_change(40.0, 20); // 10 held for 40ms
        let m = s.harvest(100.0); // 20 held for 60ms
        assert!((m.observed_mpl - 16.0).abs() < 1e-9, "{}", m.observed_mpl);
    }

    #[test]
    fn conflicts_per_txn_counts_aborts_and_commits() {
        let mut s = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 0);
        s.on_abort(3);
        s.on_abort(1);
        s.on_commit(10.0);
        s.on_commit(10.0);
        let m = s.harvest(1000.0);
        assert_eq!(m.aborts, 2);
        assert!((m.conflicts_per_txn - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_interval_is_well_defined() {
        let mut s = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 5);
        let m = s.harvest(100.0);
        assert_eq!(m.departures, 0);
        assert_eq!(m.mean_response_ms, 0.0);
        assert!((m.observed_mpl - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ci_interval_converges_to_the_renewal_formula() {
        // Poisson-like counts (c² ≈ 1) at 0.2/ms: the §5 formula says
        // T = (1.96/0.1)²·1 / 0.2 ≈ 1921 ms.
        let mut ci = CiInterval::new(0.1, ConfidenceLevel::P95, 100.0, 60_000.0, 1000.0);
        let mut interval = ci.current_ms();
        let mut state = 9u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..200 {
            let lambda_t = 0.2 * interval;
            // Counts with Poisson-like variance via a uniform kick of
            // matching second moment (±√(3λT)).
            let count = (lambda_t + noise() * (12.0f64 * lambda_t).sqrt()).max(0.0) as u64;
            let m = Measurement {
                departures: count,
                ..Measurement::basic(f64::from(i), interval, 0.0, 0.0)
            };
            interval = ci.observe(&m);
        }
        assert!(
            (1200.0..=3000.0).contains(&interval),
            "converged to {interval}, expected ≈ 1921"
        );
    }

    #[test]
    fn ci_interval_stretches_for_bursty_processes() {
        // Feast/famine counts are overdispersed: the required interval
        // must grow far beyond the Poisson value.
        let mut ci = CiInterval::new(0.1, ConfidenceLevel::P95, 100.0, 600_000.0, 1000.0);
        let mut interval = ci.current_ms();
        for i in 0..60 {
            let count = if i % 2 == 0 {
                (0.4 * interval) as u64
            } else {
                0
            };
            let m = Measurement {
                departures: count,
                ..Measurement::basic(f64::from(i), interval, 0.0, 0.0)
            };
            interval = ci.observe(&m);
        }
        assert!(interval > 10_000.0, "bursty stream got only {interval}");
    }

    #[test]
    fn ci_interval_grows_when_starved_and_respects_caps() {
        let mut ci = CiInterval::new(0.1, ConfidenceLevel::P95, 500.0, 4000.0, 1000.0);
        let dead = Measurement {
            departures: 0,
            ..Measurement::basic(0.0, 1000.0, 0.0, 0.0)
        };
        for _ in 0..10 {
            ci.observe(&dead);
        }
        assert_eq!(ci.current_ms(), 4000.0);
    }

    #[test]
    fn ci_interval_floors_deterministic_streams() {
        // Identical counts every interval → c² ≈ 0 → required length 0;
        // the policy must hold min_ms, not collapse.
        let mut ci = CiInterval::new(0.1, ConfidenceLevel::P95, 200.0, 60_000.0, 1000.0);
        let mut interval = ci.current_ms();
        for i in 0..30 {
            let m = Measurement {
                departures: (0.2 * interval) as u64,
                ..Measurement::basic(f64::from(i), interval, 0.0, 0.0)
            };
            interval = ci.observe(&m);
        }
        assert_eq!(interval, 200.0);
    }
}
