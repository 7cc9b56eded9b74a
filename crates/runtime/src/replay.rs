//! Replay: feed a recorded gate log back through the runtime's control
//! core and compare decision sequences.
//!
//! A controller's decisions are a pure function of the sampler input
//! stream plus the harvest instants — both of which the gate log
//! captures. Replaying a log through a freshly built [`LoopCore`] with
//! an identically constructed law must therefore reproduce every
//! recorded [`GateEvent::Decision`] *byte-identically* (timestamps
//! round-trip exactly through the JSONL format). The simulator records
//! such logs via `Simulator::set_gate_log`, which turns every scenario
//! spec into a replayable acceptance test for this crate: if the runtime
//! core drifts from the simulated control stack by even one rounding
//! mode, the conformance pin snaps.

use alc_core::gatelog::GateEvent;
use alc_core::measure::PerfIndicator;

use crate::control::LoopCore;
use crate::law::ControlLaw;
use crate::log::event_line;

/// The result of replaying a log against a law.
#[derive(Debug, Clone, PartialEq)]
pub struct Conformance {
    /// Decision events found in the log, in order.
    pub recorded: Vec<GateEvent>,
    /// Decision events the replayed law produced, in order.
    pub replayed: Vec<GateEvent>,
    /// Index of the first differing decision (`None` when the sequences
    /// are identical, including their lengths).
    pub first_divergence: Option<usize>,
}

impl Conformance {
    /// Whether the replay reproduced the log exactly.
    pub fn is_identical(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// The recorded and replayed decision sequences rendered as JSONL
    /// lines — the byte-level artifact the conformance pin compares.
    pub fn decision_lines(&self) -> (Vec<String>, Vec<String>) {
        (
            self.recorded.iter().map(event_line).collect(),
            self.replayed.iter().map(event_line).collect(),
        )
    }
}

/// Replays `events` through a fresh control core driving `law`,
/// returning the decisions the law produced at each recorded harvest.
///
/// The log's non-decision events feed the telemetry window exactly as
/// the original driver fed its sampler; each recorded decision triggers
/// a harvest at its timestamp. The recorded bound is ignored — the law
/// re-derives it.
pub fn replay(
    events: &[GateEvent],
    law: Box<dyn ControlLaw>,
    indicator: PerfIndicator,
) -> Vec<GateEvent> {
    let mut core = LoopCore::new(law, indicator);
    events
        .iter()
        .filter_map(|event| core.feed(event))
        .map(|d| GateEvent::Decision {
            at_ms: d.at_ms,
            bound: d.bound,
        })
        .collect()
}

/// Replays the log and lines its decisions up against the recorded ones.
pub fn check_conformance(
    events: &[GateEvent],
    law: Box<dyn ControlLaw>,
    indicator: PerfIndicator,
) -> Conformance {
    let recorded: Vec<GateEvent> = events
        .iter()
        .filter(|e| matches!(e, GateEvent::Decision { .. }))
        .copied()
        .collect();
    let replayed = replay(events, law, indicator);
    let first_divergence = recorded
        .iter()
        .zip(&replayed)
        .position(|(a, b)| a != b)
        .or_else(|| (recorded.len() != replayed.len()).then(|| recorded.len().min(replayed.len())));
    Conformance {
        recorded,
        replayed,
        first_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::{AimdLaw, AimdParams, PaperLaw};
    use alc_core::controller::{IncrementalSteps, IsParams, LoadController};
    use alc_core::sampler::IntervalSampler;

    /// Synthesizes a log the way a driver would: feed a sampler, harvest
    /// at fixed intervals, record the controller's decisions.
    fn synthetic_log(params: IsParams) -> Vec<GateEvent> {
        let indicator = PerfIndicator::Throughput;
        let mut sampler = IntervalSampler::new(indicator, 0.0, 0);
        let mut ctrl = IncrementalSteps::new(params);
        let mut events = Vec::new();
        let mut t = 0.0;
        // A deterministic little workload: population follows the bound,
        // throughput grows with it (so IS keeps climbing), with some
        // conflicts and an occasional abort sprinkled in.
        for step in 0..30u32 {
            let bound = ctrl.current_bound();
            let mpl = bound.min(step + 1);
            t += 10.0;
            sampler.on_mpl_change(t, mpl);
            events.push(GateEvent::Mpl {
                at_ms: t,
                in_system: mpl,
            });
            for k in 0..mpl.min(20) {
                t += 3.0;
                let response = 40.0 + f64::from(k) * 1.75;
                let conflicts = u64::from(k % 3 == 0);
                let commit = GateEvent::Commit {
                    at_ms: t,
                    response_ms: response,
                    conflicts,
                };
                sampler.feed(&commit);
                events.push(commit);
            }
            if step % 7 == 3 {
                t += 1.0;
                sampler.on_abort(2);
                events.push(GateEvent::Abort {
                    at_ms: t,
                    conflicts: 2,
                });
            }
            t = f64::from(step + 1) * 500.0;
            let m = sampler.harvest(t);
            let bound = ctrl.update(&m);
            events.push(GateEvent::Decision { at_ms: t, bound });
        }
        events
    }

    fn is_params() -> IsParams {
        IsParams {
            initial_bound: 4,
            min_bound: 1,
            max_bound: 64,
            ..IsParams::default()
        }
    }

    #[test]
    fn replay_reproduces_a_synthetic_log_byte_identically() {
        let events = synthetic_log(is_params());
        let law = Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(is_params()))));
        let c = check_conformance(&events, law, PerfIndicator::Throughput);
        assert!(c.is_identical(), "diverged at {:?}", c.first_divergence);
        assert_eq!(c.recorded.len(), 30);
        let (rec, rep) = c.decision_lines();
        assert_eq!(rec, rep);
    }

    #[test]
    fn a_different_law_diverges_and_is_reported() {
        let events = synthetic_log(is_params());
        let law = Box::new(AimdLaw::new(AimdParams::default()));
        let c = check_conformance(&events, law, PerfIndicator::Throughput);
        assert!(!c.is_identical());
        assert!(c.first_divergence.expect("diverges") < c.recorded.len());
    }

    #[test]
    fn a_tampered_decision_is_caught() {
        let mut events = synthetic_log(is_params());
        let last_decision = events
            .iter()
            .rposition(|e| matches!(e, GateEvent::Decision { .. }))
            .expect("log has decisions");
        if let GateEvent::Decision { bound, .. } = &mut events[last_decision] {
            *bound += 1;
        }
        let law = Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(is_params()))));
        let c = check_conformance(&events, law, PerfIndicator::Throughput);
        assert_eq!(c.first_divergence, Some(c.recorded.len() - 1));
    }
}
