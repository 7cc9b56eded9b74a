//! Additive-increase / multiplicative-decrease admission control.

use super::{ControlLaw, WindowSnapshot};

/// Parameters of [`AimdLaw`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdParams {
    /// Bound before the first decision.
    pub initial_bound: u32,
    /// Floor of the bound.
    pub min_bound: u32,
    /// Ceiling of the bound.
    pub max_bound: u32,
    /// Additive step applied per healthy window.
    pub increase: u32,
    /// Multiplicative factor applied per overloaded window (in `(0, 1)`).
    pub decrease: f64,
    /// Overload when the window's abort ratio exceeds this.
    pub abort_ratio_high: f64,
    /// Overload when the window's p95 response time exceeds this, ms
    /// (`0.0` disables the latency signal).
    pub latency_target_ms: f64,
}

impl Default for AimdParams {
    fn default() -> Self {
        AimdParams {
            initial_bound: 8,
            min_bound: 1,
            max_bound: 1024,
            increase: 1,
            decrease: 0.5,
            abort_ratio_high: 0.3,
            latency_target_ms: 0.0,
        }
    }
}

/// The classic congestion-avoidance shape applied to MPL control: grow
/// the bound by a constant while the system looks healthy, cut it by a
/// factor the moment an overload signal fires.
///
/// Compared to the paper's hill-climbing controllers this law never
/// models the load–throughput function — it only reacts to distress
/// (restart ratio, tail latency), which makes it robust to noisy
/// throughput but systematically conservative near the optimum. It is
/// the "self-* overload control" baseline the runtime offers next to the
/// Heiss–Wagner controllers.
#[derive(Debug, Clone)]
pub struct AimdLaw {
    params: AimdParams,
    bound: u32,
}

impl AimdLaw {
    /// Creates the law at its initial bound.
    pub fn new(params: AimdParams) -> Self {
        assert!(params.min_bound >= 1, "min_bound must be at least 1");
        assert!(
            params.min_bound <= params.max_bound,
            "min_bound must not exceed max_bound"
        );
        assert!(
            params.decrease > 0.0 && params.decrease < 1.0,
            "decrease must be in (0, 1)"
        );
        let bound = params.initial_bound.clamp(params.min_bound, params.max_bound);
        AimdLaw { params, bound }
    }

    fn overloaded(&self, window: &WindowSnapshot) -> bool {
        let m = &window.measurement;
        m.abort_ratio() > self.params.abort_ratio_high
            || (self.params.latency_target_ms > 0.0 && window.p95_ms > self.params.latency_target_ms)
    }
}

impl ControlLaw for AimdLaw {
    fn decide(&mut self, window: &WindowSnapshot) -> u32 {
        let m = &window.measurement;
        if m.departures == 0 && m.aborts == 0 {
            // Starved window: no evidence either way — hold the bound.
            return self.bound;
        }
        self.bound = if self.overloaded(window) {
            let cut = (f64::from(self.bound) * self.params.decrease).floor() as u32;
            cut.clamp(self.params.min_bound, self.params.max_bound)
        } else {
            self.bound
                .saturating_add(self.params.increase)
                .clamp(self.params.min_bound, self.params.max_bound)
        };
        self.bound
    }

    fn current_bound(&self) -> u32 {
        self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_core::measure::Measurement;

    fn window(departures: u64, aborts: u64, p95_ms: f64) -> WindowSnapshot {
        let mut w = WindowSnapshot::from_measurement(Measurement {
            departures,
            aborts,
            ..Measurement::basic(0.0, 1000.0, 10.0, 100.0)
        });
        w.p95_ms = p95_ms;
        w
    }

    #[test]
    fn grows_additively_while_healthy() {
        let mut law = AimdLaw::new(AimdParams {
            initial_bound: 4,
            increase: 2,
            ..AimdParams::default()
        });
        assert_eq!(law.decide(&window(100, 0, 10.0)), 6);
        assert_eq!(law.decide(&window(100, 5, 10.0)), 8);
        assert_eq!(law.current_bound(), 8);
    }

    #[test]
    fn cuts_multiplicatively_on_abort_storm() {
        let mut law = AimdLaw::new(AimdParams {
            initial_bound: 40,
            decrease: 0.5,
            abort_ratio_high: 0.3,
            ..AimdParams::default()
        });
        // 60 aborts on 100 departures: ratio 0.375 > 0.3.
        assert_eq!(law.decide(&window(100, 60, 10.0)), 20);
        assert_eq!(law.decide(&window(100, 60, 10.0)), 10);
    }

    #[test]
    fn latency_signal_fires_only_when_enabled() {
        let mut off = AimdLaw::new(AimdParams {
            initial_bound: 10,
            latency_target_ms: 0.0,
            ..AimdParams::default()
        });
        assert_eq!(off.decide(&window(100, 0, 5000.0)), 11);
        let mut on = AimdLaw::new(AimdParams {
            initial_bound: 10,
            latency_target_ms: 1000.0,
            ..AimdParams::default()
        });
        assert_eq!(on.decide(&window(100, 0, 5000.0)), 5);
    }

    #[test]
    fn holds_on_starved_windows_and_respects_caps() {
        let mut law = AimdLaw::new(AimdParams {
            initial_bound: 3,
            min_bound: 2,
            max_bound: 4,
            ..AimdParams::default()
        });
        assert_eq!(law.decide(&window(0, 0, 0.0)), 3);
        assert_eq!(law.decide(&window(10, 0, 0.0)), 4);
        assert_eq!(law.decide(&window(10, 0, 0.0)), 4);
        assert_eq!(law.decide(&window(10, 9, 0.0)), 2);
        assert_eq!(law.decide(&window(10, 9, 0.0)), 2);
    }
}
