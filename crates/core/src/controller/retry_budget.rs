//! Retry-budget admission control as an MPL load controller.
//!
//! A token bucket: every commit deposits `budget` retries of credit,
//! every abort withdraws one, and the balance is capped at `burst`.
//! Living in `alc-core` lets the simulator drive it directly, and
//! `alc-runtime` re-exports this very type as its `RetryBudgetLaw`, so a
//! gate log captured from a simulated retry storm replays through the
//! same decision function that made it.

use super::{check_bounds, require, LoadController};
use crate::measure::Measurement;

/// Parameters of [`RetryBudget`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetryBudgetParams {
    /// Bound before the first decision.
    pub initial_bound: u32,
    /// Floor of the bound.
    pub min_bound: u32,
    /// Ceiling of the bound.
    pub max_bound: u32,
    /// Retry credit earned per successful completion (e.g. `0.1` = one
    /// retry allowed per ten commits).
    pub budget: f64,
    /// Maximum banked credit, in retries (the burst the bucket absorbs).
    pub burst: f64,
    /// Additive step applied when the window spends at most
    /// `headroom × earned` credit (comfortably inside the budget).
    pub increase: u32,
    /// Multiplicative factor applied when the bucket runs dry (in
    /// `(0, 1)`).
    pub decrease: f64,
    /// Fraction of the per-window earned credit under which the system
    /// counts as comfortable (in `[0, 1]`).
    pub headroom: f64,
}

impl Default for RetryBudgetParams {
    fn default() -> Self {
        RetryBudgetParams {
            initial_bound: 8,
            min_bound: 1,
            max_bound: 1024,
            budget: 0.1,
            burst: 32.0,
            increase: 1,
            decrease: 0.5,
            headroom: 0.5,
        }
    }
}

impl RetryBudgetParams {
    /// The first field [`RetryBudget::new`] cannot run with, as
    /// `<field> must …` (`initial_bound` is clamped, never refused).
    pub fn check(&self) -> Result<(), String> {
        check_bounds(self.min_bound, self.max_bound, None)?;
        require(self.budget >= 0.0, "budget must be ≥ 0")?;
        require(self.burst >= 0.0, "burst must be ≥ 0")?;
        require(self.decrease > 0.0 && self.decrease < 1.0, "decrease must lie in (0, 1)")?;
        require((0.0..=1.0).contains(&self.headroom), "headroom must lie in [0, 1]")
    }
}

/// Token-bucket retry budgeting over interval measurements: a window
/// that drains the bucket below zero is an overload — the bound is cut
/// multiplicatively and the bucket resets to empty. A window that spends
/// only a small fraction of what it earned lets the bound creep up
/// additively; anything in between holds.
///
/// Unlike a plain abort-ratio threshold, the bucket forgives short
/// conflict bursts (paid from banked credit) while still clamping
/// sustained restart storms — the closed-loop retry amplification that
/// turns a transient fault into a metastable collapse.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    params: RetryBudgetParams,
    bound: u32,
    credit: f64,
}

impl RetryBudget {
    /// Creates the controller at its initial bound with an empty bucket;
    /// panics exactly when [`RetryBudgetParams::check`] errs.
    pub fn new(params: RetryBudgetParams) -> Self {
        params.check().expect("invalid retry-budget parameters");
        let bound = params.initial_bound.clamp(params.min_bound, params.max_bound);
        RetryBudget {
            params,
            bound,
            credit: 0.0,
        }
    }
}

impl LoadController for RetryBudget {
    fn update(&mut self, m: &Measurement) -> u32 {
        if m.departures == 0 && m.aborts == 0 {
            return self.bound; // starved window: no evidence
        }
        let earned = m.departures as f64 * self.params.budget;
        let spent = m.aborts as f64;
        let balance = self.credit + earned - spent;
        self.bound = if balance < 0.0 {
            self.credit = 0.0;
            let cut = (f64::from(self.bound) * self.params.decrease).floor() as u32;
            cut.clamp(self.params.min_bound, self.params.max_bound)
        } else {
            self.credit = balance.min(self.params.burst);
            if spent <= self.params.headroom * earned {
                self.bound
                    .saturating_add(self.params.increase)
                    .clamp(self.params.min_bound, self.params.max_bound)
            } else {
                self.bound // inside budget but not comfortable: hold
            }
        };
        self.bound
    }

    fn current_bound(&self) -> u32 {
        self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(departures: u64, aborts: u64) -> Measurement {
        Measurement {
            departures,
            aborts,
            ..Measurement::basic(0.0, 1000.0, 10.0, 100.0)
        }
    }

    #[test]
    fn clean_windows_grow_the_bound_and_bank_credit() {
        let mut c = RetryBudget::new(RetryBudgetParams {
            initial_bound: 10,
            budget: 0.1,
            burst: 5.0,
            ..RetryBudgetParams::default()
        });
        assert_eq!(c.update(&window(100, 0)), 11); // earns 10, capped at 5
        assert!((c.credit - 5.0).abs() < 1e-12);
        assert_eq!(c.update(&window(100, 2)), 12); // 2 ≤ 0.5 × 10
    }

    #[test]
    fn burst_is_forgiven_from_banked_credit() {
        let mut c = RetryBudget::new(RetryBudgetParams {
            initial_bound: 10,
            budget: 0.1,
            burst: 20.0,
            ..RetryBudgetParams::default()
        });
        for _ in 0..5 {
            c.update(&window(100, 0)); // bank 10 per window, cap 20
        }
        // One bursty window: 25 aborts on 100 departures spends 25
        // against 20 banked + 10 earned — inside budget, bound holds.
        let before = c.current_bound();
        assert_eq!(c.update(&window(100, 25)), before);
        assert!(c.credit < 20.0);
    }

    #[test]
    fn sustained_storm_drains_the_bucket_and_cuts() {
        let mut c = RetryBudget::new(RetryBudgetParams {
            initial_bound: 40,
            budget: 0.1,
            burst: 10.0,
            decrease: 0.5,
            ..RetryBudgetParams::default()
        });
        // 30 aborts per 100 departures spends 30 against ≤ 20 available.
        assert_eq!(c.update(&window(100, 30)), 20);
        assert_eq!(c.credit, 0.0);
        assert_eq!(c.update(&window(100, 30)), 10);
    }

    #[test]
    fn starved_windows_hold_the_bound() {
        let mut c = RetryBudget::new(RetryBudgetParams {
            initial_bound: 7,
            ..RetryBudgetParams::default()
        });
        assert_eq!(c.update(&window(0, 0)), 7);
        assert_eq!(c.current_bound(), 7);
        assert_eq!(c.credit, 0.0);
    }
}
