//! Control laws: pure decision logic mapping window telemetry to MPL
//! bounds, held to the suppression-free `purity` lint scope like
//! [`crate::controller`]. [`crate::control::LoopCore`] feeds a law its
//! windows.
//!
//! A [`ControlLaw`] sees a [`WindowSnapshot`]: the interval
//! [`Measurement`] plus tail latency, sheds and queue depth.
//! [`PaperLaw`] runs any [`LoadController`] unchanged, and the
//! [`RetryBudget`] controller is a law as it stands; `alc-runtime` adds
//! AIMD.
//!
//! [`LoadController`]: crate::controller::LoadController
//! [`RetryBudget`]: crate::controller::RetryBudget

mod paper;

pub use paper::PaperLaw;

use crate::measure::Measurement;

/// One harvested telemetry window, as seen by a control law.
///
/// The embedded [`Measurement`] is produced by the same
/// [`IntervalSampler`](crate::sampler::IntervalSampler) in simulation
/// and in the runtime; the extra fields (latency quantiles, shed count,
/// queue depth) never perturb the measurement, so paper controllers
/// driven through [`PaperLaw`] see byte-identical inputs in both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// The interval measurement (throughput, conflict ratio, restart
    /// rate, observed MPL, mean response time).
    pub measurement: Measurement,
    /// Median response time over the window, ms (0 when idle). Like p95
    /// and p99, an estimate: never below the ⌈p·n⌉-th smallest response
    /// time of the window, at most 1/16 above it, and exact when the
    /// window's response times are all equal.
    pub p50_ms: f64,
    /// 95th-percentile response time over the window, ms (0 when idle;
    /// an estimate within the bound of `p50_ms`).
    pub p95_ms: f64,
    /// 99th-percentile response time over the window, ms (0 when idle;
    /// an estimate within the bound of `p50_ms`).
    pub p99_ms: f64,
    /// Admissions shed (rejected without queueing) during the window.
    pub shed: u64,
    /// Depth of the admission queue at harvest time.
    pub queue_depth: u32,
}

impl WindowSnapshot {
    /// A snapshot carrying only a measurement (quantiles and gate state
    /// zeroed) — what replay drivers construct from logged events.
    pub fn from_measurement(measurement: Measurement) -> Self {
        WindowSnapshot {
            measurement,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            shed: 0,
            queue_depth: 0,
        }
    }
}

/// A decision rule over telemetry windows: the generalization of
/// [`LoadController`], widened to see the full [`WindowSnapshot`].
///
/// Implementations must be pure state machines: the bound returned by
/// [`ControlLaw::decide`] may depend only on the law's parameters, its
/// accumulated state, and the snapshots it has been shown.
///
/// [`LoadController`]: crate::controller::LoadController
pub trait ControlLaw: Send {
    /// Absorbs one window and returns the MPL bound to enforce next.
    fn decide(&mut self, window: &WindowSnapshot) -> u32;

    /// The bound currently in force (last decision, or the initial
    /// bound before any).
    fn current_bound(&self) -> u32;
}
