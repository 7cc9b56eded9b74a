//! The "theoretically derived rules of thumb" of §1, as controllers.
//!
//! The paper's position: "Tay et al. claim that k²n/D should be less than
//! 1.5 … Iyer suggests that the mean number of conflicts per transaction
//! should not exceed 0.75. … the question is whether these bounds actually
//! apply to all possible load situations. As long as no detailed
//! examinations of these rules are available, they have to be considered
//! with caution." Implementing them makes that caution measurable — the
//! ablation experiments race them against the feedback controllers.
//!
//! * [`TayRule`] needs to *know* the workload (`k`, `D`): it is an open-
//!   loop rule, a bound fixed when it is built.
//! * [`IyerRule`] is closed-loop: it watches the measured conflicts per
//!   transaction and steers the bound multiplicatively toward the 0.75
//!   target, with an additive-increase exploration term when conflicts sit
//!   below target.

use super::{check_bounds, clamp_bound, require, LoadController};
use crate::measure::Measurement;

/// Tay's `k²n/D < 1.5` rule as an (open-loop) controller.
#[derive(Debug, Clone)]
pub struct TayRule {
    bound: u32,
}

impl TayRule {
    /// Tay et al.'s canonical bound on `k²n/D`.
    const THRESHOLD: f64 = 1.5;

    /// The first argument [`TayRule::new`] cannot run with, as
    /// `<argument> must …`.
    pub fn check(k: u32, db_size: u64, min_bound: u32, max_bound: u32) -> Result<(), String> {
        require(k >= 1, "k must be ≥ 1")?;
        require(db_size >= 1, "db_size must be ≥ 1")?;
        check_bounds(min_bound, max_bound, None)
    }

    /// Creates the rule for a workload with `k` accesses per transaction
    /// on a database of `db_size` items: the largest `n` with
    /// `k²n/D ≤ 1.5`. Panics exactly when [`TayRule::check`] errs.
    pub fn new(k: u32, db_size: u64, min_bound: u32, max_bound: u32) -> Self {
        Self::check(k, db_size, min_bound, max_bound).expect("invalid Tay-rule arguments");
        let k = f64::from(k);
        let n = Self::THRESHOLD * db_size as f64 / (k * k);
        TayRule {
            bound: clamp_bound(n.floor(), min_bound, max_bound),
        }
    }
}

impl LoadController for TayRule {
    fn update(&mut self, _m: &Measurement) -> u32 {
        self.bound
    }

    fn current_bound(&self) -> u32 {
        self.bound
    }
}

/// Parameters of the Iyer-rule feedback controller.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IyerRuleParams {
    /// Target mean conflicts per transaction (Iyer: 0.75).
    pub target: f64,
    /// Additive bound increase per interval while conflicts are below
    /// target (exploration).
    pub increase: f64,
    /// Bound in force before the first measurement.
    pub initial_bound: u32,
    /// Static lower bound.
    pub min_bound: u32,
    /// Static upper bound.
    pub max_bound: u32,
}

impl Default for IyerRuleParams {
    fn default() -> Self {
        IyerRuleParams {
            target: 0.75,
            increase: 4.0,
            initial_bound: 10,
            min_bound: 1,
            max_bound: 1000,
        }
    }
}

impl IyerRuleParams {
    /// The first field [`IyerRule::new`] cannot run with, as
    /// `<field> must …`.
    pub fn check(&self) -> Result<(), String> {
        require(self.target > 0.0, "target must be > 0")?;
        check_bounds(self.min_bound, self.max_bound, Some(self.initial_bound))
    }
}

/// Iyer's conflicts-per-transaction rule as a feedback controller:
/// multiplicative decrease when over target, additive increase when under.
#[derive(Debug, Clone)]
pub struct IyerRule {
    params: IyerRuleParams,
    bound: f64,
}

impl IyerRule {
    /// Creates the controller; panics exactly when
    /// [`IyerRuleParams::check`] errs.
    pub fn new(params: IyerRuleParams) -> Self {
        params.check().expect("invalid Iyer-rule parameters");
        IyerRule {
            params,
            bound: f64::from(params.initial_bound),
        }
    }
}

impl LoadController for IyerRule {
    fn update(&mut self, m: &Measurement) -> u32 {
        let p = self.params;
        let c = m.conflicts_per_txn;
        if c > p.target {
            // Conflicts scale ~linearly with MPL, so scaling the bound by
            // target/c aims straight at the target.
            let basis = if m.observed_mpl > 1.0 {
                m.observed_mpl
            } else {
                self.bound
            };
            self.bound = (basis * p.target / c).max(1.0);
        } else {
            self.bound += p.increase;
        }
        self.bound = self
            .bound
            .clamp(f64::from(p.min_bound), f64::from(p.max_bound));
        clamp_bound(self.bound, p.min_bound, p.max_bound)
    }

    fn current_bound(&self) -> u32 {
        clamp_bound(self.bound, self.params.min_bound, self.params.max_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tay_rule_computes_the_formula() {
        // n = 1.5 * 4000 / 64 = 93.75 -> 93
        let rule = TayRule::new(8, 4000, 1, 1000);
        assert_eq!(rule.current_bound(), 93);
    }

    #[test]
    fn tay_rule_tracks_workload_updates() {
        // The open-loop rule follows a workload shift by being rebuilt for
        // the new workload: doubling k on the same database quarters n.
        let mut rule = TayRule::new(8, 4000, 1, 1000);
        assert_eq!(rule.current_bound(), 93);
        rule = TayRule::new(16, 4000, 1, 1000);
        // 1.5 * 4000 / 256 = 23.4 -> 23
        assert_eq!(rule.current_bound(), 23);
    }

    #[test]
    fn tay_rule_clamps() {
        let rule = TayRule::new(2, 1_000_000, 1, 200);
        assert_eq!(rule.current_bound(), 200);
        let rule = TayRule::new(100, 100, 5, 200);
        assert_eq!(rule.current_bound(), 5);
    }

    #[test]
    fn tay_rule_update_ignores_measurements() {
        let mut rule = TayRule::new(8, 4000, 1, 1000);
        let m = Measurement {
            conflicts_per_txn: 50.0,
            ..Measurement::basic(0.0, 1.0, 0.0, 500.0)
        };
        assert_eq!(rule.update(&m), 93);
    }

    #[test]
    fn iyer_rule_decreases_over_target() {
        let mut rule = IyerRule::new(IyerRuleParams {
            initial_bound: 100,
            ..IyerRuleParams::default()
        });
        let m = Measurement {
            conflicts_per_txn: 1.5,
            ..Measurement::basic(0.0, 1.0, 0.0, 100.0)
        };
        // 100 * 0.75/1.5 = 50
        assert_eq!(rule.update(&m), 50);
    }

    #[test]
    fn iyer_rule_increases_under_target() {
        let mut rule = IyerRule::new(IyerRuleParams {
            initial_bound: 100,
            increase: 5.0,
            ..IyerRuleParams::default()
        });
        let m = Measurement {
            conflicts_per_txn: 0.1,
            ..Measurement::basic(0.0, 1.0, 0.0, 100.0)
        };
        assert_eq!(rule.update(&m), 105);
    }

    #[test]
    fn iyer_rule_converges_on_linear_conflict_model() {
        // conflicts = 0.01 * n: the fixed point of the rule is n = 75.
        let mut rule = IyerRule::new(IyerRuleParams {
            initial_bound: 400,
            max_bound: 600,
            ..IyerRuleParams::default()
        });
        let mut bound = rule.current_bound();
        for i in 0..200 {
            let n = f64::from(bound);
            let m = Measurement {
                conflicts_per_txn: 0.01 * n,
                ..Measurement::basic(f64::from(i), 1.0, 0.0, n)
            };
            bound = rule.update(&m);
        }
        assert!(
            (f64::from(bound) - 75.0).abs() <= 6.0,
            "fixed point missed: {bound}"
        );
    }

    #[test]
    fn iyer_rule_respects_bounds() {
        let mut rule = IyerRule::new(IyerRuleParams {
            initial_bound: 10,
            min_bound: 5,
            max_bound: 20,
            ..IyerRuleParams::default()
        });
        for _ in 0..10 {
            let m = Measurement {
                conflicts_per_txn: 0.0,
                ..Measurement::basic(0.0, 1.0, 0.0, 10.0)
            };
            assert!(rule.update(&m) <= 20);
        }
        let m = Measurement {
            conflicts_per_txn: 1000.0,
            ..Measurement::basic(0.0, 1.0, 0.0, 20.0)
        };
        assert!(rule.update(&m) >= 5);
    }
}
