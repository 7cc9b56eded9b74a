//! Interpreting a fitted quadratic `P(n) = a₀ + a₁·n + a₂·n²`.
//!
//! The Parabola Approximation's control law (§4.2) reads the fitted
//! coefficients: if the parabola opens downward (`a₂ < 0`) the vertex
//! `−a₁/(2a₂)` is the next load bound; if it opens upward the estimate "is
//! obviously unreliable and useless" (§5.2) and a recovery countermeasure
//! must run instead.

/// A quadratic model `y = a0 + a1·x + a2·x²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quadratic {
    /// Constant coefficient.
    pub a0: f64,
    /// Linear coefficient.
    pub a1: f64,
    /// Quadratic coefficient; `a2 < 0` means the parabola opens downward.
    pub a2: f64,
}

/// Classification of a fitted parabola, deciding the §4.2 control law
/// branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FitShape {
    /// Opens downward with a clear curvature: the vertex is trustworthy.
    Concave {
        /// Location of the maximum.
        vertex: f64,
    },
    /// Opens upward (or curvature below the significance floor): the
    /// Figure 7/8 pathologies. The §5.2 countermeasures apply.
    Unusable,
}

impl Quadratic {
    /// Builds the model from RLS coefficients `[a0, a1, a2]`.
    pub fn from_theta(theta: &[f64; 3]) -> Self {
        Quadratic {
            a0: theta[0],
            a1: theta[1],
            a2: theta[2],
        }
    }

    /// Evaluates the model.
    pub fn eval(&self, x: f64) -> f64 {
        self.a0 + self.a1 * x + self.a2 * x * x
    }

    /// The §4.2 decision: usable vertex or §5.2 pathology. `min_curvature`
    /// is the smallest `|a2|` treated as significantly concave — a flat
    /// hump fit with `a2 ≈ 0⁻` would otherwise send the vertex to ±∞
    /// (Figure 7).
    pub fn classify(&self, min_curvature: f64) -> FitShape {
        if self.a2 < -min_curvature.abs() {
            FitShape::Concave {
                vertex: -self.a1 / (2.0 * self.a2),
            }
        } else {
            FitShape::Unusable
        }
    }

    /// The vertex location regardless of orientation; `None` when the
    /// model is (numerically) linear.
    pub fn vertex(&self) -> Option<f64> {
        if self.a2.abs() < f64::EPSILON {
            None
        } else {
            Some(-self.a1 / (2.0 * self.a2))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_vertex() {
        // y = -(x-3)² + 9 = -x² + 6x
        let q = Quadratic {
            a0: 0.0,
            a1: 6.0,
            a2: -1.0,
        };
        assert_eq!(q.eval(3.0), 9.0);
        assert_eq!(q.vertex(), Some(3.0));
    }

    #[test]
    fn classify_concave() {
        let q = Quadratic {
            a0: 0.0,
            a1: 6.0,
            a2: -1.0,
        };
        assert_eq!(q.classify(1e-9), FitShape::Concave { vertex: 3.0 });
    }

    #[test]
    fn classify_convex_is_unusable() {
        let q = Quadratic {
            a0: 0.0,
            a1: -6.0,
            a2: 1.0,
        };
        assert_eq!(q.classify(1e-9), FitShape::Unusable);
    }

    #[test]
    fn classify_flat_hump_below_floor_is_unusable() {
        // a2 barely negative: vertex would fly off to a huge value.
        let q = Quadratic {
            a0: 10.0,
            a1: 0.001,
            a2: -1e-12,
        };
        assert_eq!(q.classify(1e-6), FitShape::Unusable);
    }

    #[test]
    fn linear_has_no_vertex() {
        let q = Quadratic {
            a0: 1.0,
            a1: 2.0,
            a2: 0.0,
        };
        assert_eq!(q.vertex(), None);
        assert_eq!(q.classify(1e-9), FitShape::Unusable);
    }

    #[test]
    fn from_theta_roundtrip() {
        let q = Quadratic::from_theta(&[1.0, -2.0, 0.5]);
        assert_eq!((q.a0, q.a1, q.a2), (1.0, -2.0, 0.5));
    }
}
