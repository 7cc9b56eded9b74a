//! Adapter running the paper's controllers unchanged as a [`ControlLaw`].

use crate::controller::{LoadController, RetryBudget};

use super::{ControlLaw, WindowSnapshot};

/// Wraps any [`LoadController`] as a [`ControlLaw`].
///
/// The adapter forwards only the snapshot's measurement, so the
/// decisions depend on the event stream alone: the simulator drives its
/// controller through this adapter, and a replay of the simulator's gate
/// log through another reproduces them bit-for-bit (the conformance
/// property the replay harness pins).
pub struct PaperLaw {
    inner: Box<dyn LoadController>,
}

impl PaperLaw {
    /// Adopts a controller.
    pub fn new(inner: Box<dyn LoadController>) -> Self {
        PaperLaw { inner }
    }
}

impl ControlLaw for PaperLaw {
    fn decide(&mut self, window: &WindowSnapshot) -> u32 {
        self.inner.update(&window.measurement)
    }

    fn current_bound(&self) -> u32 {
        self.inner.current_bound()
    }
}

/// The retry budget needs no box: it reads only the measurement, so
/// the controller is a law as it stands.
impl ControlLaw for RetryBudget {
    fn decide(&mut self, window: &WindowSnapshot) -> u32 {
        self.update(&window.measurement)
    }

    fn current_bound(&self) -> u32 {
        LoadController::current_bound(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{IncrementalSteps, IsParams};
    use crate::measure::Measurement;

    #[test]
    fn forwards_measurements() {
        let params = IsParams {
            initial_bound: 10,
            min_bound: 1,
            max_bound: 100,
            ..IsParams::default()
        };
        let mut reference = IncrementalSteps::new(params);
        let mut law = PaperLaw::new(Box::new(IncrementalSteps::new(params)));
        assert_eq!(law.current_bound(), reference.current_bound());
        for step in 0..12 {
            let m = Measurement::basic(
                f64::from(step) * 1000.0,
                1000.0,
                f64::from(reference.current_bound()),
                f64::from(reference.current_bound()),
            );
            let expect = reference.update(&m);
            let got = law.decide(&WindowSnapshot::from_measurement(m));
            assert_eq!(got, expect, "step {step}");
        }
    }
}
