//! Control laws: pure decision logic mapping window telemetry to MPL
//! bounds.
//!
//! Everything in this directory is deterministic, clock-free, I/O-free
//! policy code — the same discipline `alc-core`'s `controller/` obeys,
//! enforced by the repo's suppression-free `purity` lint scope. The
//! real-time machinery (locks, clocks, threads) lives in the crate root
//! and calls in here with explicit event-time arguments.
//!
//! Three families implement [`ControlLaw`]:
//!
//! * [`PaperLaw`] — adapts any `alc_core` [`LoadController`] (Incremental
//!   Steps, Parabola Approximation, the hybrids, self-tuning loops,
//!   Tay/Iyer rules) unchanged. The decision sequence is a function of
//!   the [`Measurement`] alone, which is what makes simulator replay
//!   conformance exact.
//! * [`AimdLaw`] — additive-increase / multiplicative-decrease on an
//!   overload signal (abort ratio or tail latency), the classic
//!   congestion-avoidance shape used by self-* overload controllers.
//! * [`RetryBudgetLaw`] — retry-budget admission: completions earn retry
//!   credit, aborts spend it, and exhausting the budget triggers a
//!   multiplicative backoff. It is `alc_core`'s `RetryBudget` itself,
//!   a law by the same forwarding as [`PaperLaw`]'s.
//!
//! [`LoadController`]: alc_core::controller::LoadController
//! [`Measurement`]: alc_core::measure::Measurement

mod aimd;
mod paper;

pub use aimd::{AimdLaw, AimdParams};
pub use alc_core::controller::{RetryBudget as RetryBudgetLaw, RetryBudgetParams};
pub use paper::PaperLaw;

use alc_core::measure::Measurement;

/// One harvested telemetry window, as seen by a control law.
///
/// The embedded [`Measurement`] is produced by the same
/// `alc_core::sampler::IntervalSampler` the simulator uses; the extra
/// fields (latency quantiles, shed count, queue depth) are runtime-only
/// observations that never perturb the measurement, so paper controllers
/// driven through [`PaperLaw`] see byte-identical inputs in simulation
/// and in the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The interval measurement (throughput, conflict ratio, restart
    /// rate, observed MPL, mean response time).
    pub measurement: Measurement,
    /// Median response time over the window, ms (0 when idle).
    pub p50_ms: f64,
    /// 95th-percentile response time over the window, ms (0 when idle).
    pub p95_ms: f64,
    /// 99th-percentile response time over the window, ms (0 when idle).
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

/// A decision rule over telemetry windows: the runtime's generalization
/// of `alc_core`'s [`LoadController`], widened to see the full
/// [`WindowSnapshot`].
///
/// Implementations must be pure state machines: the bound returned by
/// [`ControlLaw::decide`] may depend only on the law's parameters, its
/// accumulated state, and the snapshots it has been shown.
///
/// [`LoadController`]: alc_core::controller::LoadController
pub trait ControlLaw: Send {
    /// Absorbs one window and returns the MPL bound to enforce next.
    fn decide(&mut self, window: &WindowSnapshot) -> u32;

    /// The bound currently in force (last decision, or the initial
    /// bound before any).
    fn current_bound(&self) -> u32;
}
