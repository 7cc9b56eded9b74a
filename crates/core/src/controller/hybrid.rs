//! A hybrid of the two §4 algorithms: Incremental Steps for exploration,
//! Parabola Approximation for precision.
//!
//! The paper's evaluation (§9) shows a complementary pair: IS "reacts very
//! quickly … but has serious problems to adjust correctly", while PA
//! "needs some more time to respond but tracks the optimum more accurately
//! and reliably". [`Hybrid`] exploits that complementarity:
//!
//! 1. **Bootstrap (IS) phase.** The zig-zag climber owns the bound. Every
//!    measurement is *also* fed to the PA estimator
//!    ([`ParabolaApproximation::observe_only`]), so the IS excursions
//!    double as excitation for the least squares fit — better excitation,
//!    in fact, than PA's own warm-up ramp, because IS visits both flanks
//!    of the ridge.
//! 2. **Refine (PA) phase.** Once the estimator has absorbed enough
//!    samples *and* reports a concave fit, PA takes over at IS's current
//!    position and tracks the vertex.
//! 3. **Revert.** If PA's fit degenerates (upward-opening parabolas for
//!    half of the last eight intervals — the Fig. 7/8 pathologies), the
//!    hybrid falls back to a fresh IS phase seeded at the current bound,
//!    regenerating excitation until concavity returns.
//!
//! The result keeps IS's fast reaction to jumps without inheriting its
//! poor steady-state accuracy — an ablation the benches quantify
//! (`abl-hybrid`).

use super::{require, IncrementalSteps, IsParams, LoadController, PaParams, ParabolaApproximation};
use crate::estimator::quadratic::FitShape;
use crate::measure::Measurement;

/// Measurements the estimator must absorb before PA may take over (the
/// 3-parameter fit needs at least 3).
const BOOTSTRAP_SAMPLES: u64 = 12;
/// Unusable (convex) fits within the last `REVERT_WINDOW` refine
/// intervals before the hybrid reverts to a fresh bootstrap. A windowed
/// count, not a consecutive one: PA's own probing fallback alternates
/// the fit shape, so pathology shows up as a *rate*.
const REVERT_AFTER: u32 = 4;
/// Length of the sliding window over fit shapes (at most 64, the bits
/// of the history mask).
const REVERT_WINDOW: u32 = 8;

/// Tuning parameters of the [`Hybrid`] controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HybridParams {
    /// Inner IS parameters (bootstrap phase).
    pub is: IsParams,
    /// Inner PA parameters (refine phase). `initial_bound`, `min_bound`
    /// and `max_bound` should agree with the IS ones; the constructor
    /// asserts the range does.
    pub pa: PaParams,
}

impl HybridParams {
    /// The first field [`Hybrid::new`] cannot run with, as `<field> must …`
    /// (an inner phase's field as `is.<field>` / `pa.<field>`).
    pub fn check(&self) -> Result<(), String> {
        self.is.check().map_err(|e| format!("is.{e}"))?;
        self.pa.check().map_err(|e| format!("pa.{e}"))?;
        // The phases hand the bound over, so they must share one range.
        require(self.pa.min_bound == self.is.min_bound, "pa.min_bound must share is.min_bound")?;
        require(self.pa.max_bound == self.is.max_bound, "pa.max_bound must share is.max_bound")
    }
}

/// Which phase currently owns the output bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HybridPhase {
    /// Incremental Steps is exploring; the estimator is learning along.
    Bootstrap,
    /// Parabola Approximation is tracking the vertex.
    Refine,
}

/// Diagnostic counters for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HybridDiagnostics {
    /// Bootstrap → refine hand-overs.
    promotions: u64,
    /// Refine → bootstrap reversions (PA pathology hits).
    reversions: u64,
}

/// IS-bootstrapped, PA-refined dynamic optimum search.
#[derive(Debug, Clone)]
pub struct Hybrid {
    params: HybridParams,
    is: IncrementalSteps,
    pa: ParabolaApproximation,
    phase: HybridPhase,
    phase_samples: u64,
    /// Bitmask of recent refine-phase fit shapes (1 = unusable), newest
    /// in the lowest bit.
    convex_history: u64,
    diagnostics: HybridDiagnostics,
}

impl Hybrid {
    /// Creates the controller; panics exactly when [`HybridParams::check`]
    /// errs.
    pub fn new(params: HybridParams) -> Self {
        params.check().expect("invalid hybrid parameters");
        Hybrid {
            is: IncrementalSteps::new(params.is),
            pa: ParabolaApproximation::new(params.pa),
            phase: HybridPhase::Bootstrap,
            phase_samples: 0,
            convex_history: 0,
            diagnostics: HybridDiagnostics::default(),
            params,
        }
    }

    fn promote(&mut self) {
        // PA resumes exactly where IS stood; the estimator is already
        // trained from the bootstrap excursions.
        self.pa.set_base_bound(f64::from(self.is.current_bound()));
        self.phase = HybridPhase::Refine;
        self.phase_samples = 0;
        self.convex_history = 0;
        self.diagnostics.promotions += 1;
    }

    fn revert(&mut self) {
        // A fresh IS seeded at PA's current position regenerates
        // excitation around the (possibly moved) ridge.
        self.is = IncrementalSteps::new(IsParams {
            initial_bound: self.pa.current_bound(),
            ..self.params.is
        });
        self.phase = HybridPhase::Bootstrap;
        self.phase_samples = 0;
        self.convex_history = 0;
        self.diagnostics.reversions += 1;
    }
}

impl LoadController for Hybrid {
    fn update(&mut self, m: &Measurement) -> u32 {
        self.phase_samples += 1;
        match self.phase {
            HybridPhase::Bootstrap => {
                let bound = self.is.update(m);
                self.pa.observe_only(m);
                if self.phase_samples >= BOOTSTRAP_SAMPLES
                    && matches!(self.pa.fit_shape(), FitShape::Concave { .. })
                {
                    self.promote();
                }
                bound
            }
            HybridPhase::Refine => {
                let bound = self.pa.update(m);
                let unusable = matches!(self.pa.fit_shape(), FitShape::Unusable);
                self.convex_history = (self.convex_history << 1) | u64::from(unusable);
                let window_mask = (1u64 << REVERT_WINDOW) - 1;
                let recent = (self.convex_history & window_mask).count_ones();
                if self.phase_samples >= u64::from(REVERT_WINDOW) && recent >= REVERT_AFTER {
                    self.revert();
                    return self.is.current_bound();
                }
                bound
            }
        }
    }

    fn current_bound(&self) -> u32 {
        match self.phase {
            HybridPhase::Bootstrap => self.is.current_bound(),
            HybridPhase::Refine => self.pa.current_bound(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_analytic::surface::{RidgeSurface, Schedule, Surface};

    fn params_500() -> HybridParams {
        HybridParams {
            is: IsParams {
                initial_bound: 10,
                max_bound: 500,
                beta: 2.0,
                ..IsParams::default()
            },
            pa: PaParams {
                initial_bound: 10,
                max_bound: 500,
                ..PaParams::default()
            },
        }
    }

    fn drive<S: Surface>(
        ctrl: &mut Hybrid,
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

    #[test]
    fn starts_in_bootstrap_then_promotes() {
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = Hybrid::new(params_500());
        assert_eq!(ctrl.phase, HybridPhase::Bootstrap);
        drive(&mut ctrl, &surface, 100, 1000.0);
        assert_eq!(ctrl.phase, HybridPhase::Refine);
        assert_eq!(ctrl.diagnostics.promotions, 1);
    }

    #[test]
    fn converges_to_stationary_optimum() {
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = Hybrid::new(params_500());
        let traj = drive(&mut ctrl, &surface, 300, 1000.0);
        let settled = tail_mean(&traj, 200);
        assert!(
            (settled - 150.0).abs() < 25.0,
            "settled at {settled}, optimum 150"
        );
    }

    #[test]
    fn tracks_jump_of_the_optimum() {
        let surface = RidgeSurface {
            position: Schedule::Jump {
                at: 400_000.0,
                before: 300.0,
                after: 120.0,
            },
            height: Schedule::Constant(60.0),
            steepness: 2.0,
        };
        let mut ctrl = Hybrid::new(params_500());
        let traj = drive(&mut ctrl, &surface, 900, 1000.0);
        let before = tail_mean(&traj[..400], 300);
        let after = tail_mean(&traj, 700);
        assert!((before - 300.0).abs() < 60.0, "pre-jump mean {before}");
        assert!((after - 120.0).abs() < 50.0, "post-jump mean {after}");
    }

    #[test]
    fn convex_data_never_promotes() {
        // Measurements straddling a performance *minimum* keep every
        // honest fit convex: the hybrid must refuse the hand-over to PA
        // and keep exploring with IS.
        let mut ctrl = Hybrid::new(params_500());
        let cycle = [40.0f64, 100.0, 160.0];
        for i in 0..120usize {
            let n = cycle[i % cycle.len()];
            let perf = (n - 100.0).abs(); // V shape
            ctrl.update(&Measurement::basic(i as f64, 1.0, perf, n));
        }
        assert_eq!(ctrl.phase, HybridPhase::Bootstrap);
        assert_eq!(ctrl.diagnostics.promotions, 0);
    }

    #[test]
    fn shape_degradation_after_promotion_reverts() {
        // Figure 8's scenario at the hybrid level: a healthy ridge long
        // enough to promote into the refine phase, then the surface
        // degenerates into a V — the fits turn convex and the hybrid must
        // fall back to a fresh IS bootstrap.
        let mut ctrl = Hybrid::new(params_500());
        let cycle = [40.0f64, 100.0, 160.0];
        for i in 0..200usize {
            let n = cycle[i % cycle.len()];
            let perf = if i < 60 {
                100.0 - 0.005 * (n - 100.0) * (n - 100.0) // concave ridge
            } else {
                (n - 100.0).abs() // V: convex
            };
            ctrl.update(&Measurement::basic(i as f64, 1.0, perf, n));
        }
        let d = ctrl.diagnostics;
        assert!(d.promotions >= 1, "never promoted on the healthy ridge: {d:?}");
        assert!(d.reversions >= 1, "pathology never reverted: {d:?}");
    }

    #[test]
    fn bounds_respected_in_both_phases() {
        let surface = RidgeSurface::stationary(900.0, 100.0, 2.0); // beyond max
        let mut ctrl = Hybrid::new(params_500());
        let traj = drive(&mut ctrl, &surface, 400, 1000.0);
        for &(_, b) in &traj {
            assert!((1..=500).contains(&b), "bound {b} escaped [1,500]");
        }
    }

    #[test]
    #[should_panic(expected = "must share")]
    fn rejects_mismatched_ranges() {
        Hybrid::new(HybridParams {
            is: IsParams {
                max_bound: 100,
                ..IsParams::default()
            },
            pa: PaParams {
                max_bound: 200,
                ..PaParams::default()
            },
        });
    }
}
