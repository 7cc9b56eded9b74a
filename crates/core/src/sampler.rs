//! Building [`Measurement`]s from raw completion events.
//!
//! §5: "A general problem is the choice of an appropriate measurement
//! interval length. … we have to strike a balance between stability (not
//! to react to stochastic events ('noise')) and responsiveness (quickly
//! respond to actual changes in the workload). … an estimate should
//! comprise rather hundreds of departures than some tens."
//!
//! [`IntervalSampler`] accumulates departures/aborts/response times and is
//! harvested once per interval. The interval's length is the caller's: the
//! engine's fixed sample tick or the runtime's timer.

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
}
