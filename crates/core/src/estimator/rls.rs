//! Recursive least squares with exponentially fading memory.
//!
//! §4.2: "Based on recent measurement pairs (P, n) the coefficients aᵢ are
//! estimated using a recursive least-square estimator with exponentially
//! fading memory [Young, 1984]. The fading is controllable by a weighting
//! parameter α. The recursive way the algorithm works makes it both space-
//! and time-efficient."
//!
//! The implementation is the textbook RLS recursion for a model
//! `y = φᵀθ + ε` with forgetting factor `α ∈ (0, 1]`:
//!
//! ```text
//! k   = P·φ / (α + φᵀ·P·φ)
//! θ  += k·(y − φᵀ·θ)
//! P   = (P − k·φᵀ·P) / α
//! ```
//!
//! A past observation `j` intervals old carries weight `αʲ` — the
//! "exponentially weighted short intervals" memory shape of Figure 6.
//! The dimension is const-generic; the Parabola Approximation uses `D = 3`
//! with the regressor `φ(n) = [1, n, n²]`.

// Indexed loops are the clearest rendering of the matrix recursions here.
#![allow(clippy::needless_range_loop)]

/// Recursive least-squares estimator of dimension `D` with forgetting.
#[derive(Debug, Clone)]
pub struct Rls<const D: usize> {
    theta: [f64; D],
    p: [[f64; D]; D],
    alpha: f64,
    initial_covariance: f64,
    samples: u64,
}

/// A read-only view of the estimator state, for logging and the `fig04`
/// experiment (plotting the fitted parabola against the measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlsSnapshot<const D: usize> {
    /// Current coefficient estimates.
    pub theta: [f64; D],
    /// Observations absorbed since construction.
    pub samples: u64,
}

impl<const D: usize> Rls<D> {
    /// Creates an estimator with forgetting factor `alpha` and an initial
    /// covariance of `initial_covariance · I` (large values mean "no prior
    /// confidence", the usual choice is 10³–10⁶).
    pub fn new(alpha: f64, initial_covariance: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "forgetting factor must be in (0, 1], got {alpha}"
        );
        assert!(initial_covariance > 0.0);
        let mut p = [[0.0; D]; D];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = initial_covariance;
        }
        Rls {
            theta: [0.0; D],
            p,
            alpha,
            initial_covariance,
            samples: 0,
        }
    }

    /// The forgetting factor α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Replaces the forgetting factor α — the hook for outer loops that
    /// trade memory length against responsiveness at runtime (§5). State
    /// (θ, P) is preserved; only future updates fade differently.
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "forgetting factor must be in (0, 1], got {alpha}"
        );
        self.alpha = alpha;
    }

    /// Number of observations absorbed since construction.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current coefficient estimates.
    pub fn theta(&self) -> &[f64; D] {
        &self.theta
    }

    /// A copyable snapshot of the state.
    pub fn snapshot(&self) -> RlsSnapshot<D> {
        RlsSnapshot {
            theta: self.theta,
            samples: self.samples,
        }
    }

    /// Absorbs one observation `(φ, y)` and returns the prediction error
    /// `y − φᵀθ` *before* the update (the innovation).
    pub fn update(&mut self, phi: &[f64; D], y: f64) -> f64 {
        // p_phi = P·φ
        let mut p_phi = [0.0; D];
        for i in 0..D {
            let mut acc = 0.0;
            for j in 0..D {
                acc += self.p[i][j] * phi[j];
            }
            p_phi[i] = acc;
        }
        // denom = α + φᵀ·P·φ
        let mut phi_p_phi = 0.0;
        for i in 0..D {
            phi_p_phi += phi[i] * p_phi[i];
        }
        let denom = self.alpha + phi_p_phi;

        // innovation
        let mut y_hat = 0.0;
        for i in 0..D {
            y_hat += phi[i] * self.theta[i];
        }
        let err = y - y_hat;

        // gain k = P·φ / denom; θ += k·err
        let mut k = [0.0; D];
        for i in 0..D {
            k[i] = p_phi[i] / denom;
            self.theta[i] += k[i] * err;
        }

        // P = (P − k·(P·φ)ᵀ) / α, then re-symmetrize to fight drift.
        for i in 0..D {
            for j in 0..D {
                self.p[i][j] = (self.p[i][j] - k[i] * p_phi[j]) / self.alpha;
            }
        }
        for i in 0..D {
            for j in (i + 1)..D {
                let avg = 0.5 * (self.p[i][j] + self.p[j][i]);
                self.p[i][j] = avg;
                self.p[j][i] = avg;
            }
        }

        self.samples += 1;
        err
    }

    /// Resets the covariance to `initial_covariance · I`, keeping θ.
    ///
    /// This is the §5.2 recovery countermeasure: after an abrupt workload
    /// change the old measurements are worthless; blowing the covariance
    /// up makes the estimator re-learn from fresh data at full speed while
    /// keeping the last coefficients as a starting point.
    pub fn reset_covariance(&mut self) {
        self.p = [[0.0; D]; D];
        for (i, row) in self.p.iter_mut().enumerate() {
            row[i] = self.initial_covariance;
        }
    }
}

/// The weight an observation `age` intervals old carries in an estimator
/// with forgetting factor `alpha` — Figure 6's "shapes of the estimator's
/// memory". `age = 0` is the newest observation (weight 1).
pub fn memory_weight(alpha: f64, age: u32) -> f64 {
    alpha.powi(age as i32)
}

/// The "amount of information" a configuration uses: the area under its
/// weight profile, `Σ_{j<window} αʲ` (Figure 6 compares a long interval
/// with α = 0 against intervals a fifth as long with α = 0.8 — the areas
/// match, the shapes differ).
pub fn memory_area(alpha: f64, window: u32) -> f64 {
    if (alpha - 1.0).abs() < 1e-12 {
        return f64::from(window);
    }
    (1.0 - alpha.powi(window as i32)) / (1.0 - alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace of the covariance matrix: how uncertain the estimate is.
    fn covariance_trace<const D: usize>(rls: &Rls<D>) -> f64 {
        (0..D).map(|i| rls.p[i][i]).sum()
    }

    /// Batch (ordinary) least squares on [1, x, x²] for reference.
    fn batch_quadratic_fit(data: &[(f64, f64)]) -> [f64; 3] {
        // Solve normal equations A^T A c = A^T y with Gaussian elimination.
        let mut ata = [[0.0f64; 3]; 3];
        let mut aty = [0.0f64; 3];
        for &(x, y) in data {
            let phi = [1.0, x, x * x];
            for i in 0..3 {
                for j in 0..3 {
                    ata[i][j] += phi[i] * phi[j];
                }
                aty[i] += phi[i] * y;
            }
        }
        // Gaussian elimination with partial pivoting.
        let mut m = [[0.0f64; 4]; 3];
        for i in 0..3 {
            m[i][..3].copy_from_slice(&ata[i]);
            m[i][3] = aty[i];
        }
        for col in 0..3 {
            let piv = (col..3)
                .max_by(|&a, &b| m[a][col].abs().partial_cmp(&m[b][col].abs()).unwrap())
                .unwrap();
            m.swap(col, piv);
            for row in 0..3 {
                if row != col {
                    let f = m[row][col] / m[col][col];
                    for c in col..4 {
                        m[row][c] -= f * m[col][c];
                    }
                }
            }
        }
        [m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]]
    }

    #[test]
    fn recovers_exact_quadratic() {
        // y = 2 - 3x + 0.5x², no noise, alpha = 1 (no forgetting).
        let mut rls = Rls::<3>::new(1.0, 1e6);
        for i in 0..50 {
            let x = i as f64 / 10.0;
            let y = 2.0 - 3.0 * x + 0.5 * x * x;
            rls.update(&[1.0, x, x * x], y);
        }
        let t = rls.theta();
        assert!((t[0] - 2.0).abs() < 1e-6, "a0 {}", t[0]);
        assert!((t[1] + 3.0).abs() < 1e-6, "a1 {}", t[1]);
        assert!((t[2] - 0.5).abs() < 1e-6, "a2 {}", t[2]);
    }

    #[test]
    fn matches_batch_least_squares_without_forgetting() {
        // Noisy data: RLS with alpha=1 converges to the batch LS solution.
        let mut data = Vec::new();
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for i in 0..200 {
            let x = (i % 40) as f64 / 10.0;
            let y = 1.0 + 2.0 * x - 0.7 * x * x + 0.05 * rng();
            data.push((x, y));
        }
        let batch = batch_quadratic_fit(&data);
        let mut rls = Rls::<3>::new(1.0, 1e8);
        for &(x, y) in &data {
            rls.update(&[1.0, x, x * x], y);
        }
        for i in 0..3 {
            assert!(
                (rls.theta()[i] - batch[i]).abs() < 1e-3,
                "coef {i}: rls {} vs batch {}",
                rls.theta()[i],
                batch[i]
            );
        }
    }

    #[test]
    fn forgetting_tracks_a_changing_model() {
        // Model switches from y = x to y = 4 - x at sample 100; with
        // forgetting the estimator follows, without it it averages.
        let run = |alpha: f64| {
            let mut rls = Rls::<2>::new(alpha, 1e6);
            for i in 0..100 {
                let x = (i % 10) as f64;
                rls.update(&[1.0, x], x);
            }
            for i in 0..100 {
                let x = (i % 10) as f64;
                rls.update(&[1.0, x], 4.0 - x);
            }
            rls.theta()[1] // slope estimate
        };
        let slope_fading = run(0.85);
        let slope_infinite = run(1.0);
        assert!(
            (slope_fading + 1.0).abs() < 0.05,
            "fading slope {slope_fading} should be ≈ -1"
        );
        assert!(
            slope_infinite > slope_fading + 0.3,
            "infinite-memory slope {slope_infinite} should lag behind"
        );
    }

    #[test]
    fn innovation_shrinks_on_consistent_data() {
        let mut rls = Rls::<3>::new(1.0, 1e6);
        let mut last = f64::INFINITY;
        for i in 1..30 {
            let x = i as f64;
            let e = rls.update(&[1.0, x, x * x], 5.0 + x).abs();
            if i > 4 {
                assert!(e <= last.max(1e-9) * 1.5, "innovation grew: {e} > {last}");
            }
            last = e;
        }
        assert!(last < 1e-6);
    }

    #[test]
    fn covariance_reset_restores_adaptivity() {
        let mut rls = Rls::<2>::new(1.0, 1e4);
        for i in 0..500 {
            let x = (i % 10) as f64;
            rls.update(&[1.0, x], 2.0 * x);
        }
        let trace_converged = covariance_trace(&rls);
        rls.reset_covariance();
        assert!(covariance_trace(&rls) > trace_converged * 10.0);
        // After reset, a few samples of the new regime dominate.
        for i in 0..20 {
            let x = (i % 10) as f64;
            rls.update(&[1.0, x], -2.0 * x);
        }
        assert!(
            (rls.theta()[1] + 2.0).abs() < 0.1,
            "slope after reset: {}",
            rls.theta()[1]
        );
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut rls = Rls::<2>::new(0.95, 1e3);
        rls.update(&[1.0, 2.0], 4.0);
        let snap = rls.snapshot();
        assert_eq!(snap.samples, 1);
        assert_eq!(snap.theta, *rls.theta());
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn rejects_zero_alpha() {
        Rls::<3>::new(0.0, 1.0);
    }

    #[test]
    fn memory_weight_shapes() {
        // Figure 6: alpha = 0.8, weights decay geometrically.
        assert_eq!(memory_weight(0.8, 0), 1.0);
        assert!((memory_weight(0.8, 1) - 0.8).abs() < 1e-12);
        assert!((memory_weight(0.8, 5) - 0.32768).abs() < 1e-12);
        // alpha = 1: rectangular window.
        assert_eq!(memory_weight(1.0, 100), 1.0);
    }

    #[test]
    fn memory_area_matches_figure6_tradeoff() {
        // A long interval with alpha=0 (one sample, area 1 per unit of
        // 5x-length interval → compare per-sample): the paper's point is
        // that 5 short intervals with alpha = 0.8 carry the same total
        // information as 1 long interval used once.
        let area_short = memory_area(0.8, 1000);
        assert!((area_short - 5.0).abs() < 1e-9, "area {area_short}");
        assert_eq!(memory_area(1.0, 7), 7.0);
    }
}
