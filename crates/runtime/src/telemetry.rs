//! Work outcomes, and the telemetry window (`alc_core`'s) they feed.

pub use alc_core::telemetry::TelemetryWindow;

/// How a unit of work admitted through the gate ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Committed with the given response time and the conflicts observed
    /// at (successful) certification.
    Commit {
        /// Submission → commit response time, ms. [`ControlLoop::complete`]
        /// records a value that is not a finite, non-negative number
        /// clamped into `[0, f64::MAX]`, NaN as 0.
        ///
        /// [`ControlLoop::complete`]: crate::ControlLoop::complete
        response_ms: f64,
        /// Conflicts observed while still committing.
        conflicts: u64,
    },
    /// Aborted (the caller will retry or give up) due to conflicts.
    Abort {
        /// Conflicts that caused the abort.
        conflicts: u64,
    },
}
