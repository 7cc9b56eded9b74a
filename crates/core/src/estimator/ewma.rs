//! Exponentially weighted moving average.
//!
//! §5 frames controller tuning as a balance between stability (don't chase
//! noise) and responsiveness (do chase the workload). An EWMA in front of
//! the raw performance signal is the cheapest lever: weight `w` on the new
//! observation, `1 − w` on history.

/// An exponentially weighted moving average of a scalar signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    weight: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a smoother giving weight `weight ∈ (0, 1]` to each new
    /// observation. `weight = 1` disables smoothing.
    pub fn new(weight: f64) -> Self {
        assert!(weight > 0.0 && weight <= 1.0, "weight must be in (0,1]");
        Ewma {
            weight,
            value: None,
        }
    }

    /// Feeds an observation and returns the smoothed value. The first
    /// observation initializes the average directly.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => prev + self.weight * (x - prev),
        };
        self.value = Some(v);
        v
    }

    /// The current smoothed value, if any observation has been seen.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_value_passes_through() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.update(10.0), 10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn converges_to_constant_signal() {
        let mut e = Ewma::new(0.2);
        let mut last = 0.0;
        e.update(0.0);
        for _ in 0..100 {
            last = e.update(5.0);
        }
        assert!((last - 5.0).abs() < 1e-6);
    }

    #[test]
    fn weight_one_is_identity() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        assert_eq!(e.update(42.0), 42.0);
    }

    #[test]
    fn smooths_alternating_noise() {
        let mut e = Ewma::new(0.1);
        e.update(10.0);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..200 {
            let x = if i % 2 == 0 { 9.0 } else { 11.0 };
            let v = e.update(x);
            if i > 20 {
                min = min.min(v);
                max = max.max(v);
            }
        }
        // Raw signal swings ±1; the smoothed one swings a fraction of that.
        assert!(max - min < 0.3, "smoothed range {}", max - min);
        assert!((0.5 * (max + min) - 10.0).abs() < 0.1);
    }

    #[test]
    fn reset_clears_history() {
        let mut e = Ewma::new(0.5);
        e.update(100.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.update(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "weight must be in")]
    fn rejects_zero_weight() {
        Ewma::new(0.0);
    }
}
