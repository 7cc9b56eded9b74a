//! The Method of Incremental Steps (§4.1).
//!
//! Hill climbing on the measured (load, performance) sequence: keep moving
//! the bound in the current direction while performance improves, turn
//! around when it worsens — "so we track the ridge in a zig-zag-fashion"
//! (Figure 3). The paper's adjustment rule:
//!
//! ```text
//! n*(tᵢ₊₁) = n*(tᵢ) + β·(P(tᵢ) − P(tᵢ₋₁))·signum(n*(tᵢ) − n*(tᵢ₋₁))   if |n*(tᵢ) − n(tᵢ)| ≤ δ
//!          = n*(tᵢ) + γ     if |n*(tᵢ) − n(tᵢ)| > δ  and n*(tᵢ) < n(tᵢ)
//!          = n*(tᵢ) − γ     if |n*(tᵢ) − n(tᵢ)| > δ  and n*(tᵢ) > n(tᵢ)
//! ```
//!
//! with `signum(x) = 1 for x > 0, −1 for x ≤ 0`. β scales the step with
//! the observed performance change; γ and δ pull the bound back toward the
//! actual load when the two drift apart (§4.1: "to prevent that the actual
//! load n(tᵢ) and the load bound n*(tᵢ) are drifting apart too far").
//!
//! §5.1 failure mode: if the optimum's *height* grows in place, every step
//! improves performance and the controller walks off the ridge — "the
//! algorithm 'thinks' to be on the way to the top, but actually goes
//! astray". The mandated counter-measure is a static lower and upper bound
//! on `n*`, which [`IsParams::min_bound`]/[`IsParams::max_bound`] provide.

use super::{check_bounds, clamp_bound, require, LoadController};
use crate::estimator::Ewma;
use crate::measure::Measurement;

/// Tuning parameters of the Incremental Steps controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsParams {
    /// Bound in force before the first measurement arrives.
    pub initial_bound: u32,
    /// Static lower bound on `n*` (§5.1 recovery).
    pub min_bound: u32,
    /// Static upper bound on `n*` (§5.1 recovery).
    pub max_bound: u32,
    /// Proportional gain β: step size per unit of performance change.
    pub beta: f64,
    /// Drift-correction step γ (applied when bound and load diverge).
    pub gamma: f64,
    /// Allowed divergence δ between bound `n*` and observed load `n`.
    pub delta: f64,
    /// Smallest step magnitude, keeping the zig-zag alive when the
    /// performance difference is tiny ("increase it by one at each time
    /// step" in the paper's simplest variant).
    pub min_step: f64,
    /// Largest single-step magnitude, protecting against one noisy
    /// measurement flinging the bound across the range.
    pub max_step: f64,
    /// EWMA weight on the raw performance signal (1.0 = no smoothing).
    pub smoothing: f64,
}

impl Default for IsParams {
    fn default() -> Self {
        IsParams {
            initial_bound: 10,
            min_bound: 1,
            max_bound: 1000,
            beta: 1.0,
            gamma: 4.0,
            delta: 16.0,
            min_step: 1.0,
            max_step: 64.0,
            smoothing: 1.0,
        }
    }
}

impl IsParams {
    /// The first field [`IncrementalSteps::new`] cannot run with, as
    /// `<field> must …` (the smoother's weight included).
    pub fn check(&self) -> Result<(), String> {
        check_bounds(self.min_bound, self.max_bound, Some(self.initial_bound))?;
        require(self.beta >= 0.0, "beta must be ≥ 0")?;
        require(self.gamma >= 0.0, "gamma must be ≥ 0")?;
        require(self.delta >= 0.0, "delta must be ≥ 0")?;
        require(self.min_step > 0.0, "min_step must be > 0")?;
        require(self.max_step >= self.min_step, "max_step must be ≥ min_step")?;
        require(self.smoothing > 0.0 && self.smoothing <= 1.0, "smoothing must lie in (0, 1]")
    }
}

/// The Incremental Steps (IS) controller of §4.1.
#[derive(Debug, Clone)]
pub struct IncrementalSteps {
    params: IsParams,
    bound: f64,
    prev_bound: f64,
    prev_perf: Option<f64>,
    smoother: Ewma,
}

impl IncrementalSteps {
    /// Creates the controller; panics exactly when [`IsParams::check`]
    /// errs.
    pub fn new(params: IsParams) -> Self {
        params.check().expect("invalid IS parameters");
        IncrementalSteps {
            params,
            bound: f64::from(params.initial_bound),
            prev_bound: f64::from(params.initial_bound),
            prev_perf: None,
            smoother: Ewma::new(params.smoothing),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &IsParams {
        &self.params
    }

    /// Replaces the gain β — the hook for the §5 outer control loop
    /// ([`super::SelfTuningIs`]). Controller state is preserved.
    pub fn set_beta(&mut self, beta: f64) {
        assert!(beta >= 0.0);
        self.params.beta = beta;
    }

    /// The paper's signum: 1 for positive, −1 for zero or negative. Zero
    /// mapping to −1 matters: a bound pinned at a clamp still flips
    /// direction instead of freezing.
    fn signum(x: f64) -> f64 {
        if x > 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

impl LoadController for IncrementalSteps {
    fn update(&mut self, m: &Measurement) -> u32 {
        let p = &self.params;
        let perf = self.smoother.update(m.performance);
        let n = m.observed_mpl;

        let new_bound = if (self.bound - n).abs() <= p.delta {
            // Ridge-tracking branch.
            match self.prev_perf {
                // No history yet: probe upward by one step.
                None => self.bound + p.min_step,
                Some(prev) => {
                    let dp = perf - prev;
                    let dir = Self::signum(self.bound - self.prev_bound) * Self::signum(dp);
                    // Magnitude proportional to |ΔP| but floored/capped so
                    // the search neither stalls nor explodes.
                    let magnitude = (p.beta * dp.abs()).clamp(p.min_step, p.max_step);
                    // dir already folds in the sign of ΔP: continue when
                    // improving, turn around when worsening.
                    self.bound + dir * magnitude
                }
            }
        } else if self.bound < n {
            // Load is above the bound (e.g. displacement is off and the
            // bound just dropped): drift the bound back up toward reality.
            self.bound + p.gamma
        } else {
            // Bound ran away above the achievable load: pull it back down.
            self.bound - p.gamma
        };

        self.prev_bound = self.bound;
        self.prev_perf = Some(perf);
        self.bound = f64::from(clamp_bound(new_bound, p.min_bound, p.max_bound));
        self.bound as u32
    }

    fn current_bound(&self) -> u32 {
        self.bound as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_analytic::surface::{RidgeSurface, Schedule, Surface};

    fn drive<S: Surface>(
        ctrl: &mut IncrementalSteps,
        surface: &S,
        steps: usize,
        interval_ms: f64,
    ) -> Vec<(f64, u32)> {
        let mut traj = Vec::with_capacity(steps);
        let mut bound = ctrl.current_bound();
        for i in 0..steps {
            let t = i as f64 * interval_ms;
            // The gate saturates: observed load equals the bound.
            let n = f64::from(bound);
            let perf = surface.performance(n, t);
            let m = Measurement::basic(t + interval_ms, interval_ms, perf, n);
            bound = ctrl.update(&m);
            traj.push((t, bound));
        }
        traj
    }

    #[test]
    fn climbs_to_stationary_optimum() {
        let surface = RidgeSurface::stationary(120.0, 100.0, 2.0);
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 10,
            max_bound: 500,
            beta: 2.0,
            ..IsParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 400, 1000.0);
        let tail: Vec<f64> = traj[300..].iter().map(|&(_, b)| f64::from(b)).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 120.0).abs() < 30.0,
            "settled at {mean}, optimum 120"
        );
    }

    #[test]
    fn zig_zags_around_the_optimum() {
        let surface = RidgeSurface::stationary(80.0, 50.0, 2.0);
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 78,
            max_bound: 300,
            ..IsParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 200, 1000.0);
        // Direction must flip repeatedly (zig-zag), not stick.
        let bounds: Vec<i64> = traj.iter().map(|&(_, b)| i64::from(b)).collect();
        let mut flips = 0;
        let mut last_dir = 0i64;
        for w in bounds.windows(2) {
            let dir = (w[1] - w[0]).signum();
            if dir != 0 && last_dir != 0 && dir != last_dir {
                flips += 1;
            }
            if dir != 0 {
                last_dir = dir;
            }
        }
        assert!(flips > 20, "only {flips} direction changes in 200 steps");
    }

    #[test]
    fn reacts_to_jump_of_the_optimum() {
        // Figure 13's scenario: optimum position jumps at t=500s.
        let surface = RidgeSurface {
            position: Schedule::Jump {
                at: 500_000.0,
                before: 300.0,
                after: 120.0,
            },
            height: Schedule::Constant(60.0),
            steepness: 2.0,
        };
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 50,
            max_bound: 750,
            beta: 2.0,
            ..IsParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 1000, 1000.0);
        let before: Vec<f64> = traj[350..499].iter().map(|&(_, b)| f64::from(b)).collect();
        let after: Vec<f64> = traj[800..].iter().map(|&(_, b)| f64::from(b)).collect();
        let mean_before = before.iter().sum::<f64>() / before.len() as f64;
        let mean_after = after.iter().sum::<f64>() / after.len() as f64;
        assert!(
            (mean_before - 300.0).abs() < 75.0,
            "pre-jump mean {mean_before}"
        );
        assert!(
            (mean_after - 120.0).abs() < 60.0,
            "post-jump mean {mean_after}"
        );
    }

    #[test]
    fn growing_height_failure_is_caught_by_static_bounds() {
        // §5.1: height grows in place; IS would walk upward forever.
        let surface = RidgeSurface {
            position: Schedule::Constant(100.0),
            height: Schedule::Ramp {
                from: 10.0,
                to: 1000.0,
                t_start: 0.0,
                t_end: 400_000.0,
            },
            steepness: 0.2, // very shallow flanks: every step "improves"
        };
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 100,
            max_bound: 400,
            beta: 50.0,
            ..IsParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 400, 1000.0);
        for &(_, b) in &traj {
            assert!(b <= 400, "static upper bound violated: {b}");
            assert!(b >= 1);
        }
    }

    #[test]
    fn drift_correction_pulls_bound_toward_load() {
        // Observed load stuck far below the bound: γ-steps must bring the
        // bound down, not the ridge-tracking branch.
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 500,
            max_bound: 1000,
            gamma: 10.0,
            delta: 16.0,
            ..IsParams::default()
        });
        let mut bound = ctrl.current_bound();
        for i in 0..20 {
            let m = Measurement::basic(f64::from(i) * 1000.0, 1000.0, 5.0, 40.0);
            bound = ctrl.update(&m);
        }
        assert!(bound <= 300, "bound should fall toward the load, got {bound}");
    }

    #[test]
    fn drift_correction_raises_bound_under_displacementless_drop() {
        // Observed load above the bound (bound was lowered, admission-only
        // control): bound drifts upward by γ.
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 50,
            max_bound: 1000,
            gamma: 7.0,
            delta: 4.0,
            ..IsParams::default()
        });
        let m = Measurement::basic(1000.0, 1000.0, 5.0, 200.0);
        let b = ctrl.update(&m);
        assert_eq!(b, 57);
    }

    #[test]
    fn respects_min_bound() {
        let surface = RidgeSurface::stationary(5.0, 10.0, 3.0);
        let mut ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 50,
            min_bound: 2,
            max_bound: 100,
            beta: 20.0,
            ..IsParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 300, 1000.0);
        for &(_, b) in &traj {
            assert!(b >= 2);
        }
    }

    #[test]
    #[should_panic(expected = "initial_bound")]
    fn rejects_initial_outside_range() {
        IncrementalSteps::new(IsParams {
            initial_bound: 5000,
            ..IsParams::default()
        });
    }

    #[test]
    fn smoothing_reduces_noise_sensitivity() {
        // With heavy noise, the smoothed controller's trajectory variance
        // should be no larger than the raw controller's.
        let surface = RidgeSurface::stationary(100.0, 50.0, 2.0);
        let run = |smoothing: f64, seed: u64| {
            let mut ctrl = IncrementalSteps::new(IsParams {
                initial_bound: 100,
                max_bound: 400,
                smoothing,
                ..IsParams::default()
            });
            let mut state = seed;
            let mut noise = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            };
            let mut bound = ctrl.current_bound();
            let mut tail = Vec::new();
            for i in 0..300 {
                let n = f64::from(bound);
                let perf = surface.performance(n, 0.0) * (1.0 + 0.3 * noise());
                bound = ctrl.update(&Measurement::basic(
                    f64::from(i) * 1000.0,
                    1000.0,
                    perf,
                    n,
                ));
                if i >= 100 {
                    tail.push(f64::from(bound));
                }
            }
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            tail.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / tail.len() as f64
        };
        let var_raw = run(1.0, 42);
        let var_smooth = run(0.3, 42);
        assert!(
            var_smooth <= var_raw * 1.5,
            "smoothing made things much worse: {var_smooth} vs {var_raw}"
        );
    }
}
