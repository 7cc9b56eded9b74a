//! The Parabola Approximation (§4.2).
//!
//! The performance function is approximated as `P(n) = a₀ + a₁n + a₂n²`
//! from recent (P, n) measurement pairs via recursive least squares with
//! exponentially fading memory; the vertex of the fitted parabola becomes
//! the next load bound:
//!
//! ```text
//! n*(tᵢ₊₁) = −a₁ / (2a₂)    if a₂ < 0
//!          = <recovery>     otherwise (§5.2)
//! ```
//!
//! Three §4.2/§5.2 subtleties are implemented faithfully:
//!
//! * **Excitation.** "Because the algorithm is based on a least squares
//!   approach, it needs some variations in the measurements to get useful
//!   estimates." A deliberate low-amplitude dither cycle is superimposed
//!   on the output bound — these are the enforced oscillations visible in
//!   the paper's Figure 14 trajectory.
//! * **Memory shape.** "It is therefore better to choose a small Δt and a
//!   large α instead of a large Δt and small α" (Figure 6). The forgetting
//!   factor is a first-class parameter.
//! * **Upward-opening parabolas.** A flat hump (Fig. 7) or an abrupt shape
//!   change (Fig. 8) can produce `a₂ ≥ 0`, making the estimate "obviously
//!   unreliable and useless". The [`FallbackPolicy`] options provide the
//!   §5.2 countermeasures: hold, gradient probing, covariance reset, or a
//!   clamp to a safe bound.

use super::{check_bounds, clamp_bound, require, LoadController};
use crate::estimator::quadratic::{FitShape, Quadratic};
use crate::estimator::Rls;
use crate::measure::Measurement;

/// Recovery countermeasure when the fitted parabola opens upward (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FallbackPolicy {
    /// Keep the last bound and wait for the estimate to become concave.
    HoldLast,
    /// Take IS-like steps in the direction of the last performance
    /// improvement until concavity returns — keeps exploring instead of
    /// freezing on a plateau (Fig. 7).
    GradientProbe {
        /// Step magnitude per interval while probing.
        step: f64,
    },
    /// Jump to a configured safe bound and re-learn from there (Fig. 8's
    /// "deep in the thrashing region" case).
    ClampToSafe {
        /// The safe bound.
        bound: u32,
    },
}

/// Tuning parameters of the Parabola Approximation controller.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PaParams {
    /// Bound in force before the first measurement.
    pub initial_bound: u32,
    /// Static lower bound on `n*`.
    pub min_bound: u32,
    /// Static upper bound on `n*`; also the normalization scale of the
    /// regressor (`x = n / max_bound` keeps the RLS well-conditioned).
    pub max_bound: u32,
    /// Forgetting factor α of the RLS estimator (Fig. 6; larger = longer
    /// memory). The paper's illustrative value is 0.8; with short
    /// intervals 0.9–0.97 behaves well.
    pub alpha: f64,
    /// Initial covariance scale of the RLS prior.
    pub initial_covariance: f64,
    /// Smallest significant |a₂| (in normalized units) for the fit to
    /// count as concave; below it the vertex is numerically meaningless.
    pub min_curvature: f64,
    /// Observations to collect (while ramping the bound up) before the
    /// first vertex is trusted.
    pub warmup_samples: u64,
    /// Bound increment per interval during warm-up exploration.
    pub warmup_step: f64,
    /// Peak deviation of the excitation dither superimposed on the output.
    pub dither_amplitude: f64,
    /// Largest bound movement per interval toward a new vertex (rate
    /// limiting keeps one outlier fit from flinging the system).
    pub max_step: f64,
    /// Countermeasure when the fit opens upward.
    pub fallback: FallbackPolicy,
    /// Consecutive upward-opening fits that trigger a covariance reset
    /// (0 disables resetting).
    pub reset_after_convex: u32,
}

impl Default for PaParams {
    fn default() -> Self {
        PaParams {
            initial_bound: 10,
            min_bound: 1,
            max_bound: 1000,
            alpha: 0.95,
            initial_covariance: 1e4,
            min_curvature: 1e-3,
            warmup_samples: 8,
            warmup_step: 8.0,
            dither_amplitude: 6.0,
            max_step: 48.0,
            fallback: FallbackPolicy::GradientProbe { step: 8.0 },
            reset_after_convex: 6,
        }
    }
}

impl PaParams {
    /// The first field [`ParabolaApproximation::new`] cannot run with, as
    /// `<field> must …` (the RLS estimator's `alpha` and
    /// `initial_covariance` included).
    pub fn check(&self) -> Result<(), String> {
        check_bounds(self.min_bound, self.max_bound, Some(self.initial_bound))?;
        require(self.alpha > 0.0 && self.alpha <= 1.0, "alpha must lie in (0, 1]")?;
        require(self.initial_covariance > 0.0, "initial_covariance must be > 0")?;
        require(self.dither_amplitude >= 0.0, "dither_amplitude must be ≥ 0")?;
        require(self.max_step > 0.0, "max_step must be > 0")
    }
}

/// Diagnostic counters exposed for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PaDiagnostics {
    /// Intervals whose fit opened upward (Fig. 7/8 pathology hits).
    pub convex_fits: u64,
    /// Covariance resets performed.
    pub covariance_resets: u64,
    /// Intervals whose vertex was accepted.
    pub vertex_updates: u64,
}

/// The Parabola Approximation (PA) controller of §4.2.
#[derive(Debug, Clone)]
pub struct ParabolaApproximation {
    params: PaParams,
    rls: Rls<3>,
    /// The undithered bound the controller believes optimal.
    bound: f64,
    dither_phase: u8,
    consecutive_convex: u32,
    prev_bound: f64,
    prev_perf: Option<f64>,
    probe_direction: f64,
    last_innovation: f64,
    diagnostics: PaDiagnostics,
}

impl ParabolaApproximation {
    /// Creates the controller; panics exactly when [`PaParams::check`]
    /// errs.
    pub fn new(params: PaParams) -> Self {
        params.check().expect("invalid PA parameters");
        ParabolaApproximation {
            params,
            rls: Rls::new(params.alpha, params.initial_covariance),
            bound: f64::from(params.initial_bound),
            dither_phase: 0,
            consecutive_convex: 0,
            prev_bound: f64::from(params.initial_bound),
            prev_perf: None,
            probe_direction: 1.0,
            last_innovation: 0.0,
            diagnostics: PaDiagnostics::default(),
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &PaParams {
        &self.params
    }

    /// Diagnostic counters (convex fits, resets, accepted vertices).
    pub fn diagnostics(&self) -> PaDiagnostics {
        self.diagnostics
    }

    /// The current fitted parabola in *denormalized* coordinates, i.e.
    /// coefficients of `P(n)` with `n` in transactions. Used by the
    /// `fig04` experiment to draw the fit against the measurements.
    pub fn fitted_parabola(&self) -> Quadratic {
        let s = f64::from(self.params.max_bound);
        let t = self.rls.theta();
        Quadratic {
            a0: t[0],
            a1: t[1] / s,
            a2: t[2] / (s * s),
        }
    }

    /// The undithered bound the controller currently believes optimal.
    pub fn base_bound(&self) -> f64 {
        self.bound
    }

    /// Moves the controller's base bound without touching the estimator —
    /// used by hybrid controllers handing over from another search phase.
    pub fn set_base_bound(&mut self, bound: f64) {
        let p = self.params;
        self.bound = bound.clamp(f64::from(p.min_bound), f64::from(p.max_bound));
    }

    /// The forgetting factor currently in force.
    pub fn alpha(&self) -> f64 {
        self.rls.alpha()
    }

    /// Replaces the forgetting factor α — the hook for the §5 outer loop
    /// ([`super::SelfTuningPa`]). Estimator state is preserved.
    pub fn set_alpha(&mut self, alpha: f64) {
        self.rls.set_alpha(alpha);
    }

    /// The RLS prediction error of the most recent measurement (before
    /// the estimator absorbed it): the innovation an outer loop watches
    /// to tell workload shifts from noise.
    pub fn last_innovation(&self) -> f64 {
        self.last_innovation
    }

    /// Classification of the current fit: concave with a usable vertex,
    /// or unusable (upward-opening / numerically flat).
    pub fn fit_shape(&self) -> FitShape {
        Quadratic::from_theta(self.rls.theta()).classify(self.params.min_curvature)
    }

    /// Absorbs a measurement into the estimator *without* running the
    /// control law or moving the bound. Hybrid controllers call this while
    /// another search phase owns the output, so the parabola is already
    /// trained when they hand over.
    pub fn observe_only(&mut self, m: &Measurement) {
        let scale = f64::from(self.params.max_bound);
        let x = (m.observed_mpl / scale).clamp(0.0, 2.0);
        self.last_innovation = self.rls.update(&[1.0, x, x * x], m.performance);
        self.prev_perf = Some(m.performance);
    }

    fn dither(&mut self) -> f64 {
        // Four-phase triangle cycle 0, +A, 0, −A: three distinct regressor
        // values per cycle keep the 3-parameter fit identifiable even when
        // the vertex stands still.
        let a = self.params.dither_amplitude;
        let d = match self.dither_phase {
            0 => 0.0,
            1 => a,
            2 => 0.0,
            _ => -a,
        };
        self.dither_phase = (self.dither_phase + 1) % 4;
        d
    }

    fn apply_fallback(&mut self, perf: f64) {
        match self.params.fallback {
            FallbackPolicy::HoldLast => {}
            FallbackPolicy::GradientProbe { step } => {
                // Continue in the direction that last improved performance,
                // reverse otherwise (a one-step hill climb).
                if let Some(prev) = self.prev_perf {
                    let moved = self.bound - self.prev_bound;
                    let improved = perf > prev;
                    let dir = if moved.abs() > f64::EPSILON {
                        if improved {
                            moved.signum()
                        } else {
                            -moved.signum()
                        }
                    } else {
                        self.probe_direction
                    };
                    self.probe_direction = dir;
                    self.bound += dir * step;
                } else {
                    self.bound += step;
                }
            }
            FallbackPolicy::ClampToSafe { bound } => {
                self.bound = f64::from(bound);
            }
        }
        if self.params.reset_after_convex > 0
            && self.consecutive_convex >= self.params.reset_after_convex
        {
            self.rls.reset_covariance();
            self.consecutive_convex = 0;
            self.diagnostics.covariance_resets += 1;
        }
    }
}

impl LoadController for ParabolaApproximation {
    fn update(&mut self, m: &Measurement) -> u32 {
        let p = self.params;
        let scale = f64::from(p.max_bound);
        let x = (m.observed_mpl / scale).clamp(0.0, 2.0);
        self.last_innovation = self.rls.update(&[1.0, x, x * x], m.performance);

        let old_bound = self.bound;
        if self.rls.samples() < p.warmup_samples {
            // Exploration ramp: spread the first measurements over a range
            // of loads so the first fit sees genuine variation.
            self.bound += p.warmup_step;
        } else {
            let fit = Quadratic::from_theta(self.rls.theta());
            match fit.classify(p.min_curvature) {
                FitShape::Concave { vertex } => {
                    self.consecutive_convex = 0;
                    self.diagnostics.vertex_updates += 1;
                    let target = vertex * scale;
                    let delta = (target - self.bound).clamp(-p.max_step, p.max_step);
                    self.bound += delta;
                }
                FitShape::Unusable => {
                    self.consecutive_convex += 1;
                    self.diagnostics.convex_fits += 1;
                    self.apply_fallback(m.performance);
                }
            }
        }

        self.prev_bound = old_bound;
        self.prev_perf = Some(m.performance);

        self.bound = self
            .bound
            .clamp(f64::from(p.min_bound), f64::from(p.max_bound));
        let dither = self.dither();
        clamp_bound(self.bound + dither, p.min_bound, p.max_bound)
    }

    fn current_bound(&self) -> u32 {
        clamp_bound(self.bound, self.params.min_bound, self.params.max_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_analytic::surface::{FlatHumpSurface, RidgeSurface, Schedule, Surface};

    fn drive<S: Surface>(
        ctrl: &mut ParabolaApproximation,
        surface: &S,
        steps: usize,
        interval_ms: f64,
    ) -> Vec<(f64, u32)> {
        let mut traj = Vec::with_capacity(steps);
        let mut bound = ctrl.current_bound();
        for i in 0..steps {
            let t = i as f64 * interval_ms;
            let n = f64::from(bound);
            let perf = surface.performance(n, t);
            bound = ctrl.update(&Measurement::basic(t + interval_ms, interval_ms, perf, n));
            traj.push((t, bound));
        }
        traj
    }

    fn tail_mean(traj: &[(f64, u32)], from: usize) -> f64 {
        let tail = &traj[from..];
        tail.iter().map(|&(_, b)| f64::from(b)).sum::<f64>() / tail.len() as f64
    }

    fn params_500() -> PaParams {
        PaParams {
            initial_bound: 10,
            max_bound: 500,
            ..PaParams::default()
        }
    }

    #[test]
    fn converges_to_stationary_optimum() {
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = ParabolaApproximation::new(params_500());
        let traj = drive(&mut ctrl, &surface, 300, 1000.0);
        let settled = tail_mean(&traj, 200);
        assert!(
            (settled - 150.0).abs() < 25.0,
            "settled at {settled}, optimum 150"
        );
        assert!(ctrl.diagnostics().vertex_updates > 100);
    }

    #[test]
    fn dither_keeps_oscillating_at_steady_state() {
        // Figure 14: "The oscillations of the trajectory ... are enforced
        // by the algorithm".
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = ParabolaApproximation::new(params_500());
        let traj = drive(&mut ctrl, &surface, 300, 1000.0);
        let tail: Vec<u32> = traj[250..].iter().map(|&(_, b)| b).collect();
        let min = *tail.iter().min().unwrap();
        let max = *tail.iter().max().unwrap();
        assert!(
            max - min >= 8,
            "expected enforced oscillation ≥ 2×dither, saw range {}",
            max - min
        );
    }

    #[test]
    fn tracks_jump_of_the_optimum() {
        // Figure 14's scenario.
        let surface = RidgeSurface {
            position: Schedule::Jump {
                at: 500_000.0,
                before: 300.0,
                after: 120.0,
            },
            height: Schedule::Constant(60.0),
            steepness: 2.0,
        };
        let mut ctrl = ParabolaApproximation::new(PaParams {
            initial_bound: 50,
            max_bound: 750,
            alpha: 0.9,
            ..PaParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 1000, 1000.0);
        let before = tail_mean(&traj[..500], 350);
        let after = tail_mean(&traj, 800);
        assert!((before - 300.0).abs() < 50.0, "pre-jump mean {before}");
        assert!((after - 120.0).abs() < 40.0, "post-jump mean {after}");
    }

    #[test]
    fn flat_hump_triggers_fallback_not_flight() {
        // Figure 7: a broad flat hump makes fits convex; the controller
        // must not run away to max_bound.
        let surface = FlatHumpSurface {
            center: Schedule::Constant(200.0),
            height: Schedule::Constant(50.0),
            width: 120.0,
        };
        let mut ctrl = ParabolaApproximation::new(params_500());
        let traj = drive(&mut ctrl, &surface, 400, 1000.0);
        let settled = tail_mean(&traj, 200);
        // Anywhere on the plateau is fine; the failure mode would be
        // pinning at min or max bound.
        assert!(
            (80.0..=420.0).contains(&settled),
            "bound fled the plateau: {settled}"
        );
        assert!(
            ctrl.diagnostics().convex_fits > 0,
            "flat hump should produce convex fits at least transiently"
        );
    }

    #[test]
    fn abrupt_shape_change_recovers() {
        // Figure 8: after the change the bound sits deep in the (convex)
        // thrashing region; covariance reset + probing must bring it back.
        let surface = RidgeSurface {
            position: Schedule::Jump {
                at: 300_000.0,
                before: 400.0,
                after: 80.0,
            },
            height: Schedule::Jump {
                at: 300_000.0,
                before: 80.0,
                after: 40.0,
            },
            steepness: 3.0,
        };
        let mut ctrl = ParabolaApproximation::new(PaParams {
            initial_bound: 50,
            max_bound: 600,
            alpha: 0.9,
            ..PaParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 900, 1000.0);
        let after = tail_mean(&traj, 700);
        assert!(
            (after - 80.0).abs() < 40.0,
            "failed to recover to new optimum: {after}"
        );
    }

    #[test]
    fn covariance_reset_fires_after_persistent_convexity() {
        let mut ctrl = ParabolaApproximation::new(PaParams {
            warmup_samples: 4,
            reset_after_convex: 3,
            fallback: FallbackPolicy::HoldLast,
            ..params_500()
        });
        // Feed measurements that straddle a performance *minimum* at
        // n = 100 (V shape): every honest quadratic fit opens upward.
        let cycle = [40.0f64, 100.0, 160.0];
        for i in 0..60usize {
            let n = cycle[i % cycle.len()];
            let perf = (n - 100.0).abs();
            ctrl.update(&Measurement::basic(i as f64, 1.0, perf, n));
        }
        let d = ctrl.diagnostics();
        assert!(d.convex_fits > 10, "convex fits not detected: {d:?}");
        assert!(
            d.covariance_resets >= 1,
            "no covariance reset despite persistent convex fits: {d:?}"
        );
    }

    #[test]
    fn hold_last_fallback_freezes_base_bound() {
        let mut ctrl = ParabolaApproximation::new(PaParams {
            warmup_samples: 2,
            fallback: FallbackPolicy::HoldLast,
            reset_after_convex: 0,
            dither_amplitude: 0.0,
            ..params_500()
        });
        let mut bound = ctrl.current_bound();
        for i in 0..40 {
            let n = f64::from(bound);
            let perf = (n - 100.0).abs(); // convex
            bound = ctrl.update(&Measurement::basic(f64::from(i), 1.0, perf, n));
        }
        let frozen = ctrl.base_bound();
        for i in 40..50 {
            let n = f64::from(bound);
            let perf = (n - 100.0).abs();
            bound = ctrl.update(&Measurement::basic(f64::from(i), 1.0, perf, n));
        }
        assert_eq!(ctrl.base_bound(), frozen);
    }

    #[test]
    fn clamp_to_safe_fallback_goes_to_safe_bound() {
        let mut ctrl = ParabolaApproximation::new(PaParams {
            warmup_samples: 2,
            fallback: FallbackPolicy::ClampToSafe { bound: 42 },
            reset_after_convex: 0,
            dither_amplitude: 0.0,
            ..params_500()
        });
        let cycle = [40.0f64, 100.0, 160.0];
        for i in 0..30usize {
            let n = cycle[i % cycle.len()];
            let perf = (n - 100.0).abs(); // V shape: convex fits
            ctrl.update(&Measurement::basic(i as f64, 1.0, perf, n));
        }
        assert_eq!(ctrl.base_bound(), 42.0);
    }

    #[test]
    fn bounds_are_respected_always() {
        let surface = RidgeSurface::stationary(900.0, 100.0, 2.0); // beyond max
        let mut ctrl = ParabolaApproximation::new(PaParams {
            initial_bound: 5,
            min_bound: 2,
            max_bound: 300,
            ..PaParams::default()
        });
        let traj = drive(&mut ctrl, &surface, 300, 1000.0);
        for &(_, b) in &traj {
            assert!((2..=300).contains(&b), "bound {b} escaped [2,300]");
        }
    }

    #[test]
    fn fitted_parabola_denormalizes_correctly() {
        // Train on an exact parabola of n; the denormalized fit must match.
        let mut ctrl = ParabolaApproximation::new(PaParams {
            max_bound: 1000,
            alpha: 1.0,
            initial_covariance: 1e8,
            warmup_samples: 0,
            dither_amplitude: 0.0,
            ..PaParams::default()
        });
        for i in 0..100 {
            let n = 50.0 + f64::from(i % 20) * 20.0;
            let perf = 10.0 + 0.4 * n - 0.001 * n * n;
            ctrl.update(&Measurement::basic(f64::from(i), 1.0, perf, n));
        }
        let q = ctrl.fitted_parabola();
        assert!((q.a0 - 10.0).abs() < 0.2, "a0 {}", q.a0);
        assert!((q.a1 - 0.4).abs() < 0.01, "a1 {}", q.a1);
        assert!((q.a2 + 0.001).abs() < 1e-4, "a2 {}", q.a2);
        // And the implied vertex is -a1/(2 a2) = 200.
        assert!((q.vertex().unwrap() - 200.0).abs() < 5.0);
    }

    #[test]
    fn noise_robustness_on_stationary_ridge() {
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = ParabolaApproximation::new(params_500());
        let mut state = 7u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut bound = ctrl.current_bound();
        let mut tail = Vec::new();
        for i in 0..500 {
            let n = f64::from(bound);
            let perf = surface.performance(n, 0.0) * (1.0 + 0.2 * noise());
            bound = ctrl.update(&Measurement::basic(f64::from(i) * 1000.0, 1000.0, perf, n));
            if i >= 300 {
                tail.push(f64::from(bound));
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 150.0).abs() < 40.0,
            "noisy steady state drifted to {mean}"
        );
    }
}
