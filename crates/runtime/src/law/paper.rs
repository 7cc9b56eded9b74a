//! Adapter running the paper's controllers unchanged as a [`ControlLaw`].

use alc_core::controller::{LoadController, RetryBudget};

use super::{ControlLaw, WindowSnapshot};

/// Wraps any `alc_core` [`LoadController`] as a [`ControlLaw`].
///
/// The adapter forwards only the snapshot's measurement, exactly as the
/// simulator feeds the controller — so a controller object driven
/// through the runtime reproduces its simulated decision sequence
/// bit-for-bit on the same event stream (the conformance property the
/// replay harness pins).
pub struct PaperLaw {
    inner: Box<dyn LoadController>,
}

impl PaperLaw {
    /// Adopts a controller.
    pub fn new(inner: Box<dyn LoadController>) -> Self {
        PaperLaw { inner }
    }

    /// Read access to the wrapped controller.
    pub fn controller(&self) -> &dyn LoadController {
        self.inner.as_ref()
    }
}

impl ControlLaw for PaperLaw {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, window: &WindowSnapshot) -> u32 {
        self.inner.update(&window.measurement)
    }

    fn current_bound(&self) -> u32 {
        self.inner.current_bound()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The retry budget needs no box: it reads only the measurement, so
/// the simulator's controller is the runtime's law as it stands.
impl ControlLaw for RetryBudget {
    fn name(&self) -> &'static str {
        LoadController::name(self)
    }

    fn decide(&mut self, window: &WindowSnapshot) -> u32 {
        self.update(&window.measurement)
    }

    fn current_bound(&self) -> u32 {
        LoadController::current_bound(self)
    }

    fn reset(&mut self) {
        LoadController::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_core::controller::{IncrementalSteps, IsParams};
    use alc_core::measure::Measurement;

    #[test]
    fn forwards_measurements_and_name() {
        let params = IsParams {
            initial_bound: 10,
            min_bound: 1,
            max_bound: 100,
            ..IsParams::default()
        };
        let mut reference = IncrementalSteps::new(params);
        let mut law = PaperLaw::new(Box::new(IncrementalSteps::new(params)));
        assert_eq!(law.name(), reference.name());
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
        law.reset();
        reference.reset();
        assert_eq!(law.current_bound(), reference.current_bound());
    }
}
