//! The overlaid outer control loop of §5.
//!
//! "Tuning does not necessarily mean manual adjustment, it can also be
//! done automatically by an overlaid, outer control loop that takes
//! long-term measurements to adjust the parameters of the inner control
//! loop."
//!
//! Two outer loops are provided, one per inner algorithm:
//!
//! * [`SelfTuningIs`] wraps the Incremental Steps controller and adapts
//!   its gain β from the long-term *step size* of the bound trajectory: a
//!   healthy zig-zag around a stationary optimum takes modest steps, a
//!   too-small gain shows long sluggish climbs, a too-large gain huge
//!   swings. The outer loop nudges β to keep the mean |step| near a
//!   target fraction of the current bound.
//! * [`SelfTuningPa`] wraps the Parabola Approximation and adapts its
//!   forgetting factor α from the *innovation* (RLS prediction error)
//!   statistics: innovations persistently above their long-run level mean
//!   the surface is moving and memory should shorten (smaller α);
//!   innovations at the noise floor mean the estimate can afford a longer
//!   memory (α toward its maximum). This automates the Δt/α trade-off of
//!   Figure 6 that §5.2 leaves to manual tuning.

use super::{require, IncrementalSteps, IsParams, LoadController, PaParams, ParabolaApproximation};
use crate::estimator::Ewma;
use crate::measure::Measurement;

/// Parameters of the outer tuning loop.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OuterParams {
    /// Inner-loop updates per outer-loop adjustment.
    pub window: u32,
    /// Desired mean |bound step| as a fraction of the current bound.
    /// Small = calm steady state, large = fast reaction.
    pub target_step_fraction: f64,
    /// Multiplicative β adjustment per outer tick (> 1).
    pub adjust_factor: f64,
    /// Lower clamp for β.
    pub beta_min: f64,
    /// Upper clamp for β.
    pub beta_max: f64,
}

impl Default for OuterParams {
    fn default() -> Self {
        OuterParams {
            window: 25,
            target_step_fraction: 0.05,
            adjust_factor: 1.5,
            beta_min: 1e-4,
            beta_max: 1e4,
        }
    }
}

impl OuterParams {
    /// The first field [`SelfTuningIs::new`] cannot run with, as
    /// `<field> must …`.
    pub fn check(&self) -> Result<(), String> {
        require(self.window >= 2, "window must be ≥ 2")?;
        require(self.target_step_fraction > 0.0, "target_step_fraction must be > 0")?;
        require(self.adjust_factor > 1.0, "adjust_factor must be > 1")?;
        require(self.beta_min > 0.0, "beta_min must be > 0")?;
        require(self.beta_min <= self.beta_max, "beta_max must be ≥ beta_min")
    }
}

/// Incremental Steps with the §5 outer loop auto-tuning its gain β.
#[derive(Debug, Clone)]
pub struct SelfTuningIs {
    inner: IncrementalSteps,
    outer: OuterParams,
    ticks: u32,
    step_sum: f64,
    bound_sum: f64,
    last_bound: u32,
}

impl SelfTuningIs {
    /// Wraps IS with the given inner and outer parameters; panics exactly
    /// when [`IsParams::check`] or [`OuterParams::check`] errs.
    pub fn new(inner_params: IsParams, outer: OuterParams) -> Self {
        outer.check().expect("invalid outer-loop parameters");
        let inner = IncrementalSteps::new(inner_params);
        SelfTuningIs {
            last_bound: inner.current_bound(),
            inner,
            outer,
            ticks: 0,
            step_sum: 0.0,
            bound_sum: 0.0,
        }
    }

    fn outer_tick(&mut self) {
        let mean_step = self.step_sum / f64::from(self.outer.window);
        let mean_bound = (self.bound_sum / f64::from(self.outer.window)).max(1.0);
        let target = self.outer.target_step_fraction * mean_bound;
        let beta = self.inner.params().beta;
        let new_beta = if mean_step > 2.0 * target {
            beta / self.outer.adjust_factor
        } else if mean_step < 0.5 * target {
            beta * self.outer.adjust_factor
        } else {
            beta
        };
        self.inner
            .set_beta(new_beta.clamp(self.outer.beta_min, self.outer.beta_max));
        self.ticks = 0;
        self.step_sum = 0.0;
        self.bound_sum = 0.0;
    }
}

impl LoadController for SelfTuningIs {
    fn update(&mut self, m: &Measurement) -> u32 {
        let bound = self.inner.update(m);
        self.step_sum += (f64::from(bound) - f64::from(self.last_bound)).abs();
        self.bound_sum += f64::from(bound);
        self.last_bound = bound;
        self.ticks += 1;
        if self.ticks >= self.outer.window {
            self.outer_tick();
        }
        bound
    }

    fn current_bound(&self) -> u32 {
        self.inner.current_bound()
    }
}

/// Parameters of the α-tuning outer loop for PA.
///
/// The loop is deliberately asymmetric. *Shortening* memory must happen
/// while the shock is still in flight — a jump of the optimum produces a
/// burst of innovations that lives and dies within a handful of
/// intervals, so waiting for a window boundary would miss it. *Lengthening*
/// memory is never urgent, so it runs calmly once per window.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PaOuterParams {
    /// Inner-loop updates per lengthening decision.
    pub window: u32,
    /// EWMA weight of the fast |innovation| tracker (recent level).
    pub fast_weight: f64,
    /// EWMA weight of the slow |innovation| tracker (the noise floor).
    pub slow_weight: f64,
    /// A step is a *shock* when its |innovation| exceeds `shock_factor`
    /// times the slow tracker.
    pub shock_factor: f64,
    /// Consecutive shock steps required before shortening starts (single
    /// measurement blips must not shorten the memory).
    pub shock_confirm: u32,
    /// Fast/slow ratio below which memory lengthens (steady state).
    pub lengthen_below: f64,
    /// Multiplicative step applied to `1 − α` per adjustment (> 1).
    pub adjust_factor: f64,
    /// Lower clamp for α (shortest memory allowed).
    pub alpha_min: f64,
    /// Upper clamp for α (longest memory allowed).
    pub alpha_max: f64,
}

impl Default for PaOuterParams {
    fn default() -> Self {
        PaOuterParams {
            window: 10,
            fast_weight: 0.4,
            slow_weight: 0.05,
            shock_factor: 3.0,
            shock_confirm: 2,
            lengthen_below: 0.8,
            adjust_factor: 1.5,
            alpha_min: 0.6,
            alpha_max: 0.99,
        }
    }
}

impl PaOuterParams {
    /// The first field [`SelfTuningPa::new`] cannot run with, as
    /// `<field> must …` (the two innovation trackers' weights included).
    pub fn check(&self) -> Result<(), String> {
        require(self.window >= 2, "window must be ≥ 2")?;
        require(self.slow_weight > 0.0, "slow_weight must be > 0")?;
        require(self.fast_weight > self.slow_weight, "fast_weight must be > slow_weight")?;
        require(self.fast_weight <= 1.0, "fast_weight must be ≤ 1")?;
        require(self.shock_factor > 1.0, "shock_factor must be > 1")?;
        require(self.shock_confirm >= 1, "shock_confirm must be ≥ 1")?;
        require(
            self.lengthen_below > 0.0 && self.lengthen_below < 1.0,
            "lengthen_below must lie in (0, 1)",
        )?;
        require(self.adjust_factor > 1.0, "adjust_factor must be > 1")?;
        require(self.alpha_min > 0.0, "alpha_min must be > 0")?;
        require(self.alpha_min <= self.alpha_max, "alpha_max must be ≥ alpha_min")?;
        require(self.alpha_max < 1.0, "alpha_max must be < 1")
    }
}

/// Parabola Approximation with the §5 outer loop auto-tuning its
/// forgetting factor α from innovation statistics.
#[derive(Debug, Clone)]
pub struct SelfTuningPa {
    inner: ParabolaApproximation,
    outer: PaOuterParams,
    fast: Ewma,
    slow: Ewma,
    ticks: u32,
    shock_streak: u32,
}

impl SelfTuningPa {
    /// Wraps PA with the given inner and outer parameters; panics exactly
    /// when [`PaParams::check`] or [`PaOuterParams::check`] errs. The
    /// inner α is clamped into `[alpha_min, alpha_max]` immediately.
    pub fn new(inner_params: PaParams, outer: PaOuterParams) -> Self {
        outer.check().expect("invalid outer-loop parameters");
        let mut inner = ParabolaApproximation::new(inner_params);
        inner.set_alpha(inner.alpha().clamp(outer.alpha_min, outer.alpha_max));
        SelfTuningPa {
            inner,
            outer,
            fast: Ewma::new(outer.fast_weight),
            slow: Ewma::new(outer.slow_weight),
            ticks: 0,
            shock_streak: 0,
        }
    }

    /// The forgetting factor currently in force.
    pub fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    /// Moves α by one geometric step of the forgetting *rate* `1 − α` —
    /// shorter memory for `shorten = true`, longer otherwise.
    fn step_alpha(&mut self, shorten: bool) {
        let o = self.outer;
        let one_minus = 1.0 - self.inner.alpha();
        let new_alpha = if shorten {
            1.0 - (one_minus * o.adjust_factor)
        } else {
            1.0 - (one_minus / o.adjust_factor)
        };
        self.inner.set_alpha(new_alpha.clamp(o.alpha_min, o.alpha_max));
    }
}

impl LoadController for SelfTuningPa {
    fn update(&mut self, m: &Measurement) -> u32 {
        let o = self.outer;
        let bound = self.inner.update(m);
        let innovation = self.inner.last_innovation().abs();
        let noise_floor = self.slow.value().unwrap_or(innovation);
        let fast = self.fast.update(innovation);
        let slow = self.slow.update(innovation);

        // Shock path: confirmed innovation bursts shorten memory at once.
        if innovation > o.shock_factor * noise_floor.max(f64::EPSILON) {
            self.shock_streak += 1;
            if self.shock_streak >= o.shock_confirm {
                self.step_alpha(true);
            }
        } else {
            self.shock_streak = 0;
        }

        // Calm path: lengthen once per window when innovations sit below
        // their long-run level.
        self.ticks += 1;
        if self.ticks >= o.window {
            self.ticks = 0;
            if fast < o.lengthen_below * slow.max(f64::EPSILON) && self.shock_streak == 0 {
                self.step_alpha(false);
            }
        }
        bound
    }

    fn current_bound(&self) -> u32 {
        self.inner.current_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_analytic::surface::{RidgeSurface, Surface};

    fn drive(
        ctrl: &mut SelfTuningIs,
        surface: &RidgeSurface,
        steps: usize,
        noise_amp: f64,
        seed: u64,
    ) -> Vec<u32> {
        let mut state = seed;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut bound = ctrl.current_bound();
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = i as f64 * 1000.0;
            let n = f64::from(bound);
            let perf = surface.performance(n, t) * (1.0 + noise_amp * noise());
            bound = ctrl.update(&Measurement::basic(t, 1000.0, perf, n));
            out.push(bound);
        }
        out
    }

    fn amplitude(tail: &[u32]) -> f64 {
        let max = f64::from(*tail.iter().max().unwrap());
        let min = f64::from(*tail.iter().min().unwrap());
        max - min
    }

    #[test]
    fn tames_an_overaggressive_gain() {
        let surface = RidgeSurface::stationary(100.0, 50.0, 2.0);
        // β far too large: plain IS would swing wildly forever.
        let params = IsParams {
            initial_bound: 100,
            max_bound: 400,
            beta: 500.0,
            max_step: 200.0,
            ..IsParams::default()
        };
        let mut plain = IncrementalSteps::new(params);
        let mut tuned = SelfTuningIs::new(params, OuterParams::default());

        let mut bound = plain.current_bound();
        let mut plain_traj = Vec::new();
        for i in 0..400 {
            let n = f64::from(bound);
            let perf = surface.performance(n, 0.0);
            bound = plain.update(&Measurement::basic(f64::from(i), 1.0, perf, n));
            plain_traj.push(bound);
        }
        let tuned_traj = drive(&mut tuned, &surface, 400, 0.0, 1);

        let plain_amp = amplitude(&plain_traj[300..]);
        let tuned_amp = amplitude(&tuned_traj[300..]);
        assert!(
            tuned_amp < plain_amp * 0.5,
            "outer loop failed to calm the oscillation: tuned {tuned_amp} vs plain {plain_amp}"
        );
        assert!(tuned.inner.params().beta < 500.0, "beta was never reduced");
    }

    #[test]
    fn wakes_up_an_undersized_gain() {
        let surface = RidgeSurface::stationary(300.0, 50.0, 2.0);
        // β microscopic: plain IS crawls from 20 toward 300.
        let params = IsParams {
            initial_bound: 20,
            max_bound: 500,
            beta: 1e-3,
            min_step: 1.0,
            ..IsParams::default()
        };
        let mut tuned = SelfTuningIs::new(
            params,
            OuterParams {
                window: 10,
                ..OuterParams::default()
            },
        );
        let traj = drive(&mut tuned, &surface, 500, 0.0, 2);
        let tail = &traj[400..];
        let mean = tail.iter().map(|&b| f64::from(b)).sum::<f64>() / tail.len() as f64;
        assert!(tuned.inner.params().beta > 1e-3, "beta was never raised");
        assert!(
            (mean - 300.0).abs() < 90.0,
            "failed to reach the optimum: settled at {mean}"
        );
    }

    #[test]
    fn beta_stays_clamped() {
        let params = IsParams::default();
        let outer = OuterParams {
            window: 5,
            beta_min: 0.5,
            beta_max: 2.0,
            ..OuterParams::default()
        };
        let mut tuned = SelfTuningIs::new(params, outer);
        let surface = RidgeSurface::stationary(50.0, 1000.0, 3.0);
        drive(&mut tuned, &surface, 300, 0.3, 3);
        let beta = tuned.inner.params().beta;
        assert!((0.5..=2.0).contains(&beta), "beta {beta}");
    }

    fn drive_pa(
        ctrl: &mut SelfTuningPa,
        surface: &RidgeSurface,
        steps: usize,
        noise_amp: f64,
        seed: u64,
    ) -> Vec<u32> {
        let mut state = seed;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut bound = ctrl.current_bound();
        let mut out = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = i as f64 * 1000.0;
            let n = f64::from(bound);
            let perf = surface.performance(n, t) * (1.0 + noise_amp * noise());
            bound = ctrl.update(&Measurement::basic(t, 1000.0, perf, n));
            out.push(bound);
        }
        out
    }

    fn pa_params_500() -> PaParams {
        PaParams {
            initial_bound: 10,
            max_bound: 500,
            ..PaParams::default()
        }
    }

    #[test]
    fn pa_alpha_lengthens_on_a_calm_surface() {
        // Stationary, noise-free surface: innovations die out, so the
        // outer loop should stretch the memory toward alpha_max.
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = SelfTuningPa::new(
            PaParams {
                alpha: 0.8,
                ..pa_params_500()
            },
            PaOuterParams::default(),
        );
        drive_pa(&mut ctrl, &surface, 300, 0.0, 1);
        assert!(
            ctrl.alpha() > 0.9,
            "alpha never lengthened on a calm surface: {}",
            ctrl.alpha()
        );
    }

    #[test]
    fn pa_alpha_shortens_when_the_surface_jumps() {
        use alc_analytic::surface::Schedule;
        // Long calm phase stretches α; the jump must pull it back down.
        let surface = RidgeSurface {
            position: Schedule::Jump {
                at: 250_000.0,
                before: 300.0,
                after: 100.0,
            },
            height: Schedule::Constant(60.0),
            steepness: 2.0,
        };
        let mut ctrl = SelfTuningPa::new(
            PaParams {
                alpha: 0.95,
                ..pa_params_500()
            },
            PaOuterParams::default(),
        );
        // Drive to just before the jump and record α, then across it.
        let mut bound = ctrl.current_bound();
        let mut alpha_before = 0.0;
        let mut alpha_min_after = 1.0f64;
        for i in 0..400usize {
            let t = i as f64 * 1000.0;
            let n = f64::from(bound);
            let perf = surface.performance(n, t);
            bound = ctrl.update(&Measurement::basic(t, 1000.0, perf, n));
            if i == 249 {
                alpha_before = ctrl.alpha();
            }
            if i > 250 {
                alpha_min_after = alpha_min_after.min(ctrl.alpha());
            }
        }
        assert!(
            alpha_min_after < alpha_before,
            "alpha never shortened after the jump: before {alpha_before}, min after {alpha_min_after}"
        );
    }

    #[test]
    fn pa_still_tracks_the_optimum() {
        let surface = RidgeSurface::stationary(150.0, 100.0, 2.0);
        let mut ctrl = SelfTuningPa::new(pa_params_500(), PaOuterParams::default());
        let traj = drive_pa(&mut ctrl, &surface, 300, 0.1, 2);
        let tail = &traj[200..];
        let mean = tail.iter().map(|&b| f64::from(b)).sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 150.0).abs() < 30.0,
            "outer loop broke PA's convergence: settled at {mean}"
        );
    }

    #[test]
    fn pa_alpha_stays_clamped() {
        let surface = RidgeSurface::stationary(100.0, 50.0, 2.0);
        let outer = PaOuterParams {
            alpha_min: 0.7,
            alpha_max: 0.9,
            window: 5,
            ..PaOuterParams::default()
        };
        let mut ctrl = SelfTuningPa::new(pa_params_500(), outer);
        drive_pa(&mut ctrl, &surface, 300, 0.5, 3);
        assert!(
            (0.7..=0.9).contains(&ctrl.alpha()),
            "alpha {} escaped clamps",
            ctrl.alpha()
        );
    }
}
