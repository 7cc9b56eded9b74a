//! Windowed telemetry: the control loop's measurement front-end.
//!
//! [`TelemetryWindow`] wraps the [`IntervalSampler`] that turns gate
//! events into measurements in simulation, runtime and replay alike, so
//! identical event streams produce identical measurements. On top of it
//! the window keeps response-time quantiles (from a fixed log-linear
//! histogram: never below the window's rank quantile, never above it by
//! more than 1/16, allocation-free after construction) and a shed
//! counter, which are reported in the [`WindowSnapshot`] but never
//! perturb the measurement. A window built without quantiles (the
//! simulator's: its laws read the measurement alone) skips their
//! per-commit update and reports them as `0.0`.

use crate::gatelog::GateEvent;
use crate::law::WindowSnapshot;
use crate::measure::PerfIndicator;
use crate::sampler::IntervalSampler;

/// Key of the first regular bucket, `[2⁻¹⁰, 2⁻¹⁰·17/16)` ms; everything
/// below lands in the underflow bucket 0.
const FIRST_KEY: i64 = (1023 - 10) << 4;
/// Key of `2⁴⁰` ms: it and everything above land in the overflow bucket.
const END_KEY: i64 = (1023 + 40) << 4;
const BUCKETS: usize = (END_KEY - FIRST_KEY) as usize + 2;

/// The bucket of a response time, keyed by its sign, exponent and top
/// four mantissa bits: each power of two of a millisecond splits into 16
/// sub-buckets, so a bucket's upper edge is at most 17/16 of any value
/// in it. Negative values (and `-0.0`) key below every bucket.
#[inline]
fn bucket(x: f64) -> usize {
    (((x.to_bits() as i64) >> 48).clamp(FIRST_KEY - 1, END_KEY) - (FIRST_KEY - 1)) as usize
}

/// The least value above every value in bucket `i`.
fn upper_edge(i: usize) -> f64 {
    if i == BUCKETS - 1 {
        f64::INFINITY
    } else {
        f64::from_bits(((i as i64 + FIRST_KEY) as u64) << 48)
    }
}

/// Response times of one window in a fixed log-linear histogram of
/// [`BUCKETS`] counts; the window's p50, p95 and p99 are read off it.
#[derive(Debug, Clone)]
struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    /// Lowest and highest occupied bucket (`lo > hi` when empty).
    lo: usize,
    hi: usize,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]), // alc-lint: allow(hot-alloc, reason="construction-time; harvest zeroes the counts in place")
            lo: BUCKETS,
            hi: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    fn observe(&mut self, x: f64) {
        let i = bucket(x);
        self.counts[i] += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// p50, p95 and p99 of the `n` values observed since the last call
    /// (`0.0` each when there were none), and a reset. Each is the upper
    /// edge of the bucket holding the ⌈p·n/100⌉-th smallest value, clamped to
    /// the observed `[min, max]`, so a window of equal values reads
    /// exactly. One pass over the occupied buckets, zeroing each.
    fn harvest(&mut self, n: u64) -> [f64; 3] {
        let mut out = [0.0; 3];
        if self.lo <= self.hi {
            let ranks = [50, 95, 99].map(|percent| (percent * n).div_ceil(100));
            let (mut q, mut seen) = (0, 0);
            for i in self.lo..=self.hi {
                seen += std::mem::take(&mut self.counts[i]);
                while q < 3 && seen >= ranks[q] {
                    out[q] = upper_edge(i).max(self.min).min(self.max);
                    q += 1;
                }
            }
        }
        (self.lo, self.hi) = (BUCKETS, 0);
        (self.min, self.max) = (f64::INFINITY, f64::NEG_INFINITY);
        out
    }
}

/// Accumulates one telemetry window: the shared interval sampler plus
/// quantile and shed tracking.
#[derive(Debug, Clone)]
pub struct TelemetryWindow {
    sampler: IntervalSampler,
    /// Response times; `None` in a window that keeps no quantiles.
    quantiles: Option<Histogram>,
    shed: u64,
}

impl TelemetryWindow {
    /// Creates a window starting at `now_ms` with `mpl` units in flight.
    pub fn new(indicator: PerfIndicator, now_ms: f64, mpl: u32) -> Self {
        TelemetryWindow {
            quantiles: Some(Histogram::new()),
            ..Self::without_quantiles(indicator, now_ms, mpl)
        }
    }

    /// A window whose snapshots report every quantile as `0.0`, for an
    /// owner whose law reads none of them.
    pub(crate) fn without_quantiles(indicator: PerfIndicator, now_ms: f64, mpl: u32) -> Self {
        TelemetryWindow {
            sampler: IntervalSampler::new(indicator, now_ms, mpl),
            quantiles: None,
            shed: 0,
        }
    }

    /// Absorbs one gate event through the shared
    /// [`IntervalSampler::feed`]; a commit also feeds the quantiles.
    #[inline]
    pub fn feed(&mut self, event: &GateEvent) {
        self.sampler.feed(event);
        if let (Some(quantiles), GateEvent::Commit { response_ms, .. }) =
            (self.quantiles.as_mut(), *event)
        {
            quantiles.observe(response_ms);
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
        let measurement = self.sampler.harvest(now_ms);
        let [p50_ms, p95_ms, p99_ms] = self
            .quantiles
            .as_mut()
            .map_or([0.0; 3], |h| h.harvest(measurement.departures));
        let snapshot = WindowSnapshot {
            measurement,
            p50_ms,
            p95_ms,
            p99_ms,
            shed: self.shed,
            queue_depth,
        };
        self.shed = 0;
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p50, p95 and p99 of one window holding `values`.
    fn quantiles(values: &[f64]) -> [f64; 3] {
        let mut w = TelemetryWindow::new(PerfIndicator::Throughput, 0.0, 0);
        for &v in values {
            w.on_commit(v, 0);
        }
        let s = w.harvest(1000.0, 0);
        [s.p50_ms, s.p95_ms, s.p99_ms]
    }

    #[test]
    fn histogram_is_exact_for_small_samples_at_the_extremes() {
        assert_eq!(quantiles(&[]), [0.0; 3]);
        let [p50, p95, p99] = quantiles(&[30.0, 10.0, 20.0]);
        assert!((20.0..=20.0 * (1.0 + 1.0 / 16.0)).contains(&p50), "{p50}");
        assert_eq!([p95, p99], [30.0; 2]);
    }

    #[test]
    fn histogram_tracks_quantiles_of_a_uniform_ramp() {
        // Deterministic shuffled-ish ramp: 1..=999 visited in stride-7
        // order (7 and 999 are coprime, so every value appears once).
        let mut v = 1u32;
        let ramp: Vec<f64> = (0..999)
            .map(|_| {
                let x = f64::from(v);
                v = (v + 7 - 1) % 999 + 1;
                x
            })
            .collect();
        let [p50, p95, _] = quantiles(&ramp);
        assert!((p50 - 500.0).abs() < 25.0, "{p50}");
        assert!((p95 - 950.0).abs() < 35.0, "{p95}");
    }

    #[test]
    fn one_value_or_equal_values_read_exactly() {
        for x in [0.0, 5e-324, 1e-7, 2.5, 1e15, f64::MAX] {
            assert_eq!(quantiles(&[x]), [x; 3], "one {x}");
            assert_eq!(quantiles(&[x; 40]), [x; 3], "forty {x}");
        }
    }

    #[test]
    fn zero_subnormal_and_max_read_finite_inside_the_window() {
        for values in [
            &[0.0, 1.0, 2.0][..],
            &[5e-324, 0.0, 3.0, 5e-324],
            &[1.0, f64::MAX, f64::MAX],
            &[0.0, 5e-324, 1e-300, 7.0, f64::MAX],
        ] {
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(0.0, f64::max);
            for q in quantiles(values) {
                assert!(q.is_finite() && (min..=max).contains(&q), "{values:?}: {q}");
            }
        }
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
