//! MPL load controllers.
//!
//! A [`LoadController`] consumes one [`Measurement`] per interval and emits
//! the admission bound `n*` to enforce until the next interval. §3 frames
//! this as a dynamic optimum search: "Starting at time t=0 with an
//! arbitrary load value, the algorithm has to find the 'ridge' of the
//! 'mountain' and to track it along the time axis", knowing only realized
//! (load, performance) pairs from the past.
//!
//! Implementations:
//!
//! * [`IncrementalSteps`] — §4.1, hill climbing in zig-zag fashion.
//! * [`ParabolaApproximation`] — §4.2, RLS parabola fit + vertex seeking.
//! * [`Hybrid`] — IS bootstrap + PA refinement, exploiting §9's
//!   complementarity finding (IS reacts fast, PA tracks accurately).
//! * [`SelfTuningIs`] / [`SelfTuningPa`] — the §5 outer control loops
//!   auto-tuning the inner parameters (β and α respectively).
//! * [`FixedBound`] / [`Unlimited`] — the §1 strawmen ("fixed upper
//!   bound" as shipped by commercial systems; "do nothing").
//! * [`TayRule`] / [`IyerRule`] — §1's "theoretically derived rules of
//!   thumb" (`k²n/D < 1.5`, conflicts/txn ≤ 0.75).
//! * [`RetryBudget`] — token-bucket retry budgeting; `alc-runtime`
//!   re-exports it as its `RetryBudgetLaw`, so retry-storm gate logs
//!   replay through the function that made them.

mod fixed;
mod hybrid;
mod incremental;
mod outer;
mod parabola;
mod retry_budget;
mod rules;

pub use fixed::{FixedBound, Unlimited};
pub use hybrid::{Hybrid, HybridDiagnostics, HybridParams, HybridPhase};
pub use incremental::{IncrementalSteps, IsParams};
pub use outer::{OuterParams, PaOuterParams, SelfTuningIs, SelfTuningPa};
pub use parabola::{FallbackPolicy, PaParams, ParabolaApproximation};
pub use retry_budget::{RetryBudget, RetryBudgetParams};
pub use rules::{IyerRule, IyerRuleParams, TayRule};

use crate::measure::Measurement;

/// A feedback controller for the concurrency-level bound `n*`.
///
/// `Send` is a supertrait so boxed controllers can cross thread
/// boundaries — the embeddable runtime hands them to its control loop,
/// and every implementation is a plain data struct anyway.
pub trait LoadController: Send {
    /// Controller name for tables and trajectory labels.
    fn name(&self) -> &'static str;

    /// Consumes the latest interval measurement and returns the bound to
    /// enforce for the next interval.
    fn update(&mut self, m: &Measurement) -> u32;

    /// The bound currently in force (before the next `update`).
    fn current_bound(&self) -> u32;

    /// Restores the initial state (used between experiment repetitions).
    fn reset(&mut self);
}

/// One rule of a parameter check: `Ok` when `ok` holds, else the rule
/// itself (`<field> must …`) as the error. Every comparison is written
/// the way round that a NaN fails it.
pub(crate) fn require(ok: bool, rule: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(rule.to_string())
    }
}

/// The bound-range rules the bounded controllers share: a floor of at
/// least 1 under the ceiling, and the initial bound (where the
/// controller starts from one rather than clamping it) inside.
pub(crate) fn check_bounds(
    min_bound: u32,
    max_bound: u32,
    initial_bound: Option<u32>,
) -> Result<(), String> {
    require(min_bound >= 1, "min_bound must be ≥ 1")?;
    require(min_bound <= max_bound, "max_bound must be ≥ min_bound")?;
    require(
        initial_bound.is_none_or(|b| (min_bound..=max_bound).contains(&b)),
        "initial_bound must lie within [min_bound, max_bound]",
    )
}

/// Clamps a real-valued bound into the controller's `[min, max]` integer
/// range. Shared by all implementations.
pub(crate) fn clamp_bound(raw: f64, min_bound: u32, max_bound: u32) -> u32 {
    if !raw.is_finite() {
        return if raw > 0.0 { max_bound } else { min_bound };
    }
    let rounded = raw.round();
    if rounded < f64::from(min_bound) {
        min_bound
    } else if rounded > f64::from(max_bound) {
        max_bound
    } else {
        rounded as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_bound_basics() {
        assert_eq!(clamp_bound(5.4, 1, 10), 5);
        assert_eq!(clamp_bound(5.5, 1, 10), 6);
        assert_eq!(clamp_bound(-3.0, 1, 10), 1);
        assert_eq!(clamp_bound(99.0, 1, 10), 10);
    }

    #[test]
    fn clamp_bound_nonfinite() {
        assert_eq!(clamp_bound(f64::NAN, 1, 10), 1);
        assert_eq!(clamp_bound(f64::INFINITY, 1, 10), 10);
        assert_eq!(clamp_bound(f64::NEG_INFINITY, 1, 10), 1);
    }
}
