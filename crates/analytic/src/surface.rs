//! Synthetic load–performance surfaces `P(n, t)`.
//!
//! §3 of the paper abstracts the controlled system to a black box: a
//! time-varying function `P(n, t)` that is unimodal in `n` at every `t`
//! ("the only local maximum is also a global one") and moves slowly enough
//! that the shape at `tᵢ` predicts the shape at `tᵢ₊₁`. These surfaces make
//! that abstraction executable so the controllers can be unit-tested
//! without simulator noise, and so the pathological situations of
//! Figures 7 (flat hump) and 8 (abrupt shape change) can be staged
//! deliberately.

/// A time-varying scalar parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// Always the same value.
    Constant(f64),
    /// Step change at `at`: `before` until then, `after` from then on —
    /// the paper's "jump-like variation to model abrupt changes".
    Jump {
        /// Time of the step.
        at: f64,
        /// Value before the step.
        before: f64,
        /// Value from the step on.
        after: f64,
    },
    /// `mean + amplitude·sin(2πt/period)` — the paper's "sinusoidal
    /// variation modelling more smooth and gradual changes".
    Sinusoid {
        /// Mid value.
        mean: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Period in the same unit as `t`.
        period: f64,
    },
    /// Linear ramp from `from` (at `t_start`) to `to` (at `t_end`),
    /// constant outside that window.
    Ramp {
        /// Value before `t_start`.
        from: f64,
        /// Value after `t_end`.
        to: f64,
        /// Ramp start time.
        t_start: f64,
        /// Ramp end time.
        t_end: f64,
    },
    /// Sample-and-hold over explicit `(time, value)` breakpoints.
    Piecewise(Vec<(f64, f64)>),
    /// General piecewise composition: each `(start, shape)` segment
    /// governs from `start` until the next segment's start (the last one
    /// forever), and its shape is evaluated in *phase-local* time
    /// `t − start` — so a sinusoid or ramp inside a phase begins at the
    /// phase boundary regardless of where the phase sits on the global
    /// axis. Before the first start the first shape applies (clamped to
    /// local time 0). Segments must be in ascending start order. This is
    /// the lowering target of the scenario DSL's phase lists; the other
    /// variants are its primitives.
    Profile(Vec<(f64, Schedule)>),
}

impl Schedule {
    /// The parameter value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Schedule::Constant(v) => *v,
            Schedule::Jump { at, before, after } => {
                if t < *at {
                    *before
                } else {
                    *after
                }
            }
            Schedule::Sinusoid {
                mean,
                amplitude,
                period,
            } => mean + amplitude * (2.0 * std::f64::consts::PI * t / period).sin(),
            Schedule::Ramp {
                from,
                to,
                t_start,
                t_end,
            } => {
                if t <= *t_start {
                    *from
                } else if t >= *t_end {
                    *to
                } else {
                    from + (to - from) * (t - t_start) / (t_end - t_start)
                }
            }
            Schedule::Piecewise(points) => {
                let mut v = points.first().map_or(0.0, |&(_, v)| v);
                for &(pt, pv) in points {
                    if pt <= t {
                        v = pv;
                    } else {
                        break;
                    }
                }
                v
            }
            Schedule::Profile(segments) => {
                let Some(first) = segments.first() else {
                    return 0.0;
                };
                let mut active = first;
                for seg in segments {
                    if seg.0 <= t {
                        active = seg;
                    } else {
                        break;
                    }
                }
                active.1.value((t - active.0).max(0.0))
            }
        }
    }

    /// The values the schedule rests at or peaks at, which bound every
    /// [`Schedule::value`]; `None` when a list in it is empty, where
    /// `value` reads 0 without anyone having written it. A phase cut
    /// short by the next one may never reach its own levels: a check on
    /// them errs on that side.
    pub fn levels(&self) -> Option<Vec<f64>> {
        Some(match self {
            Schedule::Constant(v) => vec![*v],
            Schedule::Jump { before, after, .. } => vec![*before, *after],
            Schedule::Sinusoid {
                mean, amplitude, ..
            } => vec![mean - amplitude, mean + amplitude],
            Schedule::Ramp { from, to, .. } => vec![*from, *to],
            Schedule::Piecewise(points) if !points.is_empty() => {
                points.iter().map(|&(_, v)| v).collect()
            }
            Schedule::Profile(segments) if !segments.is_empty() => {
                let mut levels = Vec::new();
                for (_, s) in segments {
                    levels.extend(s.levels()?);
                }
                levels
            }
            Schedule::Piecewise(_) | Schedule::Profile(_) => return None,
        })
    }
}

/// A load–performance surface: performance as a function of concurrency
/// level and time, with a known true optimum for evaluation.
pub trait Surface {
    /// Deterministic performance at concurrency `n` and time `t`.
    fn performance(&self, n: f64, t: f64) -> f64;

    /// The true optimal concurrency level at time `t`.
    fn optimum(&self, t: f64) -> f64;
}

/// The standard thrashing curve: `P(n) = h·(x·e^{1−x})^s` with
/// `x = n/n_opt`. Rises to `h` at `n = n_opt` and decays beyond it;
/// `steepness` sharpens both flanks (larger = more cliff-like thrashing).
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeSurface {
    /// Position of the optimum over time, `n_opt(t)`.
    pub position: Schedule,
    /// Height of the optimum over time.
    pub height: Schedule,
    /// Flank sharpness `s > 0`.
    pub steepness: f64,
}

impl RidgeSurface {
    /// A stationary ridge at `n_opt` with peak `height`.
    pub fn stationary(n_opt: f64, height: f64, steepness: f64) -> Self {
        RidgeSurface {
            position: Schedule::Constant(n_opt),
            height: Schedule::Constant(height),
            steepness,
        }
    }
}

impl Surface for RidgeSurface {
    fn performance(&self, n: f64, t: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        let n_opt = self.position.value(t).max(1.0);
        let h = self.height.value(t);
        let x = n / n_opt;
        h * (x * (1.0 - x).exp()).powf(self.steepness)
    }

    fn optimum(&self, t: f64) -> f64 {
        self.position.value(t).max(1.0)
    }
}

/// Figure 7's pathology: a broad, flat hump. `P(n) = h / (1 + ((n−c)/w)⁴)`
/// is nearly constant across `c ± w`, so a parabola fitted to samples from
/// the plateau can easily come out convex.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatHumpSurface {
    /// Center of the hump over time.
    pub center: Schedule,
    /// Peak height over time.
    pub height: Schedule,
    /// Half-width of the plateau.
    pub width: f64,
}

impl Surface for FlatHumpSurface {
    fn performance(&self, n: f64, t: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        let c = self.center.value(t);
        let h = self.height.value(t);
        let z = (n - c) / self.width;
        h / (1.0 + z * z * z * z)
    }

    fn optimum(&self, t: f64) -> f64 {
        self.center.value(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_constant() {
        assert_eq!(Schedule::Constant(5.0).value(123.0), 5.0);
    }

    #[test]
    fn schedule_jump() {
        let s = Schedule::Jump {
            at: 10.0,
            before: 1.0,
            after: 2.0,
        };
        assert_eq!(s.value(9.999), 1.0);
        assert_eq!(s.value(10.0), 2.0);
        assert_eq!(s.value(1e9), 2.0);
    }

    #[test]
    fn schedule_sinusoid_bounds_and_period() {
        let s = Schedule::Sinusoid {
            mean: 10.0,
            amplitude: 3.0,
            period: 100.0,
        };
        assert!((s.value(0.0) - 10.0).abs() < 1e-12);
        assert!((s.value(25.0) - 13.0).abs() < 1e-12);
        assert!((s.value(75.0) - 7.0).abs() < 1e-12);
        assert!((s.value(100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_ramp() {
        let s = Schedule::Ramp {
            from: 0.0,
            to: 10.0,
            t_start: 100.0,
            t_end: 200.0,
        };
        assert_eq!(s.value(50.0), 0.0);
        assert_eq!(s.value(150.0), 5.0);
        assert_eq!(s.value(250.0), 10.0);
    }

    #[test]
    fn schedule_piecewise_sample_and_hold() {
        let s = Schedule::Piecewise(vec![(0.0, 1.0), (10.0, 2.0), (20.0, 3.0)]);
        assert_eq!(s.value(0.0), 1.0);
        assert_eq!(s.value(15.0), 2.0);
        assert_eq!(s.value(20.0), 3.0);
        assert_eq!(s.value(-5.0), 1.0);
    }

    #[test]
    fn schedule_profile_composes_in_local_time() {
        // Constant 5 until t=100, then a ramp 5→15 over [0,50] local time,
        // then a sinusoid around 20 from t=200.
        let s = Schedule::Profile(vec![
            (0.0, Schedule::Constant(5.0)),
            (
                100.0,
                Schedule::Ramp {
                    from: 5.0,
                    to: 15.0,
                    t_start: 0.0,
                    t_end: 50.0,
                },
            ),
            (
                200.0,
                Schedule::Sinusoid {
                    mean: 20.0,
                    amplitude: 4.0,
                    period: 100.0,
                },
            ),
        ]);
        assert_eq!(s.value(0.0), 5.0);
        assert_eq!(s.value(99.0), 5.0);
        assert_eq!(s.value(100.0), 5.0); // ramp at local t=0
        assert_eq!(s.value(125.0), 10.0); // ramp midpoint (local t=25)
        assert_eq!(s.value(175.0), 15.0); // ramp done, holds
        assert!((s.value(200.0) - 20.0).abs() < 1e-12); // sinusoid local t=0
        assert!((s.value(225.0) - 24.0).abs() < 1e-12); // quarter period
    }

    #[test]
    fn schedule_profile_before_first_segment_and_empty() {
        let s = Schedule::Profile(vec![(100.0, Schedule::Jump {
            at: 10.0,
            before: 1.0,
            after: 2.0,
        })]);
        // Before the first start the first shape applies at local time 0.
        assert_eq!(s.value(0.0), 1.0);
        assert_eq!(s.value(105.0), 1.0);
        assert_eq!(s.value(110.0), 2.0);
        assert_eq!(Schedule::Profile(vec![]).value(42.0), 0.0);
    }

    #[test]
    fn levels_bound_every_value_and_refuse_empty_lists() {
        let s = Schedule::Profile(vec![
            (
                0.0,
                Schedule::Sinusoid {
                    mean: 10.0,
                    amplitude: 4.0,
                    period: 100.0,
                },
            ),
            (500.0, Schedule::Piecewise(vec![(0.0, 3.0), (50.0, 18.0)])),
        ]);
        let levels = s.levels().expect("no empty list");
        assert_eq!(levels, vec![6.0, 14.0, 3.0, 18.0]);
        let (lo, hi) = (3.0, 18.0);
        for t in 0..1000 {
            let v = s.value(f64::from(t));
            assert!((lo..=hi).contains(&v), "{v} at {t}");
        }
        assert_eq!(Schedule::Piecewise(vec![]).levels(), None);
        let nested = Schedule::Profile(vec![
            (0.0, Schedule::Constant(1.0)),
            (9.0, Schedule::Profile(vec![])),
        ]);
        assert_eq!(nested.levels(), None);
    }

    #[test]
    fn schedule_profile_nests() {
        // A profile inside a profile: the inner one sees local time too.
        let inner = Schedule::Profile(vec![
            (0.0, Schedule::Constant(1.0)),
            (10.0, Schedule::Constant(2.0)),
        ]);
        let s = Schedule::Profile(vec![(50.0, inner)]);
        assert_eq!(s.value(55.0), 1.0);
        assert_eq!(s.value(60.0), 2.0);
    }

    #[test]
    fn ridge_peaks_at_position() {
        let r = RidgeSurface::stationary(200.0, 50.0, 2.0);
        assert!((r.performance(200.0, 0.0) - 50.0).abs() < 1e-9);
        assert!(r.performance(100.0, 0.0) < 50.0);
        assert!(r.performance(400.0, 0.0) < 50.0);
        assert_eq!(r.optimum(0.0), 200.0);
    }

    #[test]
    fn ridge_is_unimodal() {
        let r = RidgeSurface::stationary(150.0, 10.0, 3.0);
        let vals: Vec<f64> = (1..=600).map(|n| r.performance(f64::from(n), 0.0)).collect();
        let peak = vals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((145..=155).contains(&(peak + 1)), "peak at {}", peak + 1);
        // Strictly increasing before, strictly decreasing after (allowing fp slack).
        assert!(vals[..peak].windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(vals[peak..].windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn ridge_zero_at_zero_load() {
        let r = RidgeSurface::stationary(100.0, 10.0, 2.0);
        assert_eq!(r.performance(0.0, 0.0), 0.0);
        assert_eq!(r.performance(-5.0, 0.0), 0.0);
    }

    #[test]
    fn ridge_tracks_moving_position() {
        let r = RidgeSurface {
            position: Schedule::Jump {
                at: 500.0,
                before: 300.0,
                after: 120.0,
            },
            height: Schedule::Constant(20.0),
            steepness: 2.0,
        };
        assert_eq!(r.optimum(0.0), 300.0);
        assert_eq!(r.optimum(600.0), 120.0);
        // After the jump the old optimum is deep on the thrashing flank.
        assert!(r.performance(300.0, 600.0) < 0.5 * r.performance(120.0, 600.0));
    }

    #[test]
    fn flat_hump_is_flat_on_top() {
        let f = FlatHumpSurface {
            center: Schedule::Constant(200.0),
            height: Schedule::Constant(10.0),
            width: 80.0,
        };
        let p_center = f.performance(200.0, 0.0);
        let p_off = f.performance(240.0, 0.0);
        // Within half a width, performance loses only a few percent.
        assert!(p_off > 0.93 * p_center, "hump not flat: {p_off} vs {p_center}");
        // But far out it drops hard.
        assert!(f.performance(500.0, 0.0) < 0.1 * p_center);
    }
}
