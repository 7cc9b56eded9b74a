//! Windowed telemetry: the control loop's measurement front-end.
//!
//! [`TelemetryWindow`] wraps the [`IntervalSampler`] that turns gate
//! events into measurements in simulation, runtime and replay alike, so
//! identical event streams produce identical measurements. On top of it
//! the window keeps response-time quantiles (P² streaming estimates,
//! allocation-free) and a shed counter, which are reported in the
//! [`WindowSnapshot`] but never perturb the measurement.

use crate::gatelog::GateEvent;
use crate::law::WindowSnapshot;
use crate::measure::PerfIndicator;
use crate::sampler::IntervalSampler;

/// Streaming quantile estimate via the P² algorithm (Jain & Chlamtac,
/// CACM 1985): five markers track the target quantile without storing
/// observations — deterministic, allocation-free, O(1) per observation.
#[derive(Debug, Clone)]
struct P2Quantile {
    p: f64,
    count: usize,
    /// Marker heights (first `count` entries sorted while `count < 5`).
    q: [f64; 5],
    /// Actual marker positions, 1-based.
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired-position increments per observation.
    dn: [f64; 5],
}

impl P2Quantile {
    fn new(p: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&p));
        P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
        }
    }

    fn reset(&mut self) {
        *self = P2Quantile::new(self.p);
    }

    fn observe(&mut self, x: f64) {
        if self.count < 5 {
            // Insertion sort into the warm-up buffer.
            let mut i = self.count;
            while i > 0 && self.q[i - 1] > x {
                self.q[i] = self.q[i - 1];
                i -= 1;
            }
            self.q[i] = x;
            self.count += 1;
            return;
        }
        // Locate the cell and stretch the extremes.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            let mut k = 0;
            while k < 3 && x >= self.q[k + 1] {
                k += 1;
            }
            k
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        self.count += 1;
        // Adjust the three interior markers toward their desired
        // positions (parabolic when it keeps the heights monotone,
        // linear otherwise).
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let parabolic = self.q[i]
                    + d / (self.n[i + 1] - self.n[i - 1])
                        * ((self.n[i] - self.n[i - 1] + d) * (self.q[i + 1] - self.q[i])
                            / (self.n[i + 1] - self.n[i])
                            + (self.n[i + 1] - self.n[i] - d) * (self.q[i] - self.q[i - 1])
                                / (self.n[i] - self.n[i - 1]));
                self.q[i] = if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    parabolic
                } else {
                    let j = (i as f64 + d) as usize;
                    self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
                };
                self.n[i] += d;
            }
        }
    }

    /// The current estimate (exact for fewer than five observations,
    /// `0.0` when empty).
    fn estimate(&self) -> f64 {
        match self.count {
            0 => 0.0,
            c if c < 5 => {
                // Exact small-sample quantile by rank.
                let rank = ((self.p * c as f64).ceil() as usize).clamp(1, c);
                self.q[rank - 1]
            }
            _ => self.q[2],
        }
    }
}

/// Accumulates one telemetry window: the shared interval sampler plus
/// quantile and shed tracking.
#[derive(Debug, Clone)]
pub struct TelemetryWindow {
    sampler: IntervalSampler,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    shed: u64,
}

impl TelemetryWindow {
    /// Creates a window starting at `now_ms` with `mpl` units in flight.
    pub fn new(indicator: PerfIndicator, now_ms: f64, mpl: u32) -> Self {
        TelemetryWindow {
            sampler: IntervalSampler::new(indicator, now_ms, mpl),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            shed: 0,
        }
    }

    /// Absorbs one gate event through the shared
    /// [`IntervalSampler::feed`]; a commit also feeds the quantiles.
    #[inline]
    pub fn feed(&mut self, event: &GateEvent) {
        self.sampler.feed(event);
        if let GateEvent::Commit { response_ms, .. } = *event {
            self.p50.observe(response_ms);
            self.p95.observe(response_ms);
            self.p99.observe(response_ms);
        }
    }

    /// Records a commit (the window reads no commit's timestamp).
    pub fn on_commit(&mut self, response_ms: f64, conflicts: u64) {
        self.feed(&GateEvent::Commit {
            at_ms: 0.0,
            response_ms,
            conflicts,
        });
    }

    /// Records an admission rejected without queueing.
    pub fn on_shed(&mut self) {
        self.shed += 1;
    }

    /// Closes the window at `now_ms`, returning its snapshot and
    /// starting the next window.
    pub fn harvest(&mut self, now_ms: f64, queue_depth: u32) -> WindowSnapshot {
        let snapshot = WindowSnapshot {
            measurement: self.sampler.harvest(now_ms),
            p50_ms: self.p50.estimate(),
            p95_ms: self.p95.estimate(),
            p99_ms: self.p99.estimate(),
            shed: self.shed,
            queue_depth,
        };
        self.p50.reset();
        self.p95.reset();
        self.p99.reset();
        self.shed = 0;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_is_exact_for_small_samples() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), 0.0);
        q.observe(30.0);
        q.observe(10.0);
        q.observe(20.0);
        assert_eq!(q.estimate(), 20.0);
    }

    #[test]
    fn p2_tracks_quantiles_of_a_uniform_ramp() {
        let mut p50 = P2Quantile::new(0.5);
        let mut p95 = P2Quantile::new(0.95);
        // Deterministic shuffled-ish ramp: 1..=999 visited in stride-7
        // order (7 and 999 are coprime, so every value appears once).
        let mut v = 1u32;
        for _ in 0..999 {
            p50.observe(f64::from(v));
            p95.observe(f64::from(v));
            v = (v + 7 - 1) % 999 + 1;
        }
        assert!((p50.estimate() - 500.0).abs() < 25.0, "{}", p50.estimate());
        assert!((p95.estimate() - 950.0).abs() < 35.0, "{}", p95.estimate());
    }

    #[test]
    fn window_matches_a_raw_sampler_and_resets_extras() {
        let indicator = PerfIndicator::Throughput;
        let mut w = TelemetryWindow::new(indicator, 0.0, 0);
        let mut raw = IntervalSampler::new(indicator, 0.0, 0);
        let mpl = GateEvent::Mpl {
            at_ms: 10.0,
            in_system: 4,
        };
        w.feed(&mpl);
        raw.feed(&mpl);
        w.on_commit(25.0, 2);
        raw.feed(&GateEvent::Commit {
            at_ms: 10.0,
            response_ms: 25.0,
            conflicts: 2,
        });
        let abort = GateEvent::Abort {
            at_ms: 20.0,
            conflicts: 3,
        };
        w.feed(&abort);
        raw.feed(&abort);
        w.on_shed();
        let snap = w.harvest(1000.0, 5);
        let m = raw.harvest(1000.0);
        assert_eq!(snap.measurement, m);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.queue_depth, 5);
        assert_eq!(snap.p50_ms, 25.0);
        // Next window starts clean.
        let next = w.harvest(2000.0, 0);
        assert_eq!(next.shed, 0);
        assert_eq!(next.p50_ms, 0.0);
    }
}
