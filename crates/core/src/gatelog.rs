//! The gate log: a replayable record of everything the control stack
//! observes.
//!
//! A controller's decision sequence is a pure function of the event
//! stream its [`crate::sampler::IntervalSampler`] absorbs — in-system
//! population changes, commits (with response time and observed
//! conflicts), aborts — plus the harvest instants. [`GateEvent`] captures
//! exactly that vocabulary, so a log recorded from *any* driver (the
//! simulator, the embeddable `alc-runtime` gate, a production server) can
//! be replayed through a freshly constructed sampler + controller and
//! must reproduce the recorded [`GateEvent::Decision`] sequence
//! bit-for-bit. That replay identity is what lets the simulator act as a
//! conformance harness for production control code.
//!
//! Events serialize through the workspace serde shim; the JSONL framing
//! (one externally-tagged event per line) lives in `alc-runtime`, which
//! also provides the replay driver. This module only defines the
//! vocabulary and the [`GateLogSink`] trait the recorders call, keeping
//! `alc-core` free of I/O.

use serde::{Deserialize, Serialize};

/// One observable event at the admission gate.
///
/// Field order and naming are part of the on-disk format: the JSONL
/// writer emits fields in declaration order, and the conformance pin
/// compares serialized decision lines byte-for-byte. Timestamps are
/// event-time milliseconds from the driver's epoch (simulation time for
/// the simulator, time since `Runtime` construction for the runtime) and
/// round-trip exactly through the shim's shortest-representation f64
/// formatting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GateEvent {
    /// The in-system transaction population changed (admission,
    /// departure, displacement, or a bound change admitting waiters).
    Mpl {
        /// Event time, ms.
        at_ms: f64,
        /// Transactions inside the gate after the change.
        in_system: u32,
    },
    /// A transaction committed.
    Commit {
        /// Event time, ms.
        at_ms: f64,
        /// Submission → commit response time, ms.
        response_ms: f64,
        /// Conflicts observed at successful certification (or lock
        /// waits under blocking protocols).
        conflicts: u64,
    },
    /// A transaction aborted (and will restart).
    Abort {
        /// Event time, ms.
        at_ms: f64,
        /// Conflicts that caused the abort.
        conflicts: u64,
    },
    /// The controller harvested the open interval and chose an MPL
    /// bound. Replay re-harvests at `at_ms` and must re-derive `bound`.
    Decision {
        /// Harvest/decision time, ms.
        at_ms: f64,
        /// The MPL bound the controller returned.
        bound: u32,
    },
}

impl GateEvent {
    /// The event's timestamp, ms.
    pub fn at_ms(&self) -> f64 {
        match *self {
            GateEvent::Mpl { at_ms, .. }
            | GateEvent::Commit { at_ms, .. }
            | GateEvent::Abort { at_ms, .. }
            | GateEvent::Decision { at_ms, .. } => at_ms,
        }
    }
}

/// Where recorded [`GateEvent`]s go.
///
/// Implementations must be cheap on the hot path (the simulator's engine
/// and the runtime's `admit`/`complete` call this inline); buffering
/// belongs in the sink, not the caller.
pub trait GateLogSink: Send {
    /// Absorbs one event.
    fn record(&mut self, event: &GateEvent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_shim() {
        let events = vec![
            GateEvent::Mpl {
                at_ms: 0.125,
                in_system: 3,
            },
            GateEvent::Commit {
                at_ms: 17.3,
                response_ms: 42.000000000000014,
                conflicts: 2,
            },
            GateEvent::Abort {
                at_ms: 18.0,
                conflicts: 5,
            },
            GateEvent::Decision {
                at_ms: 1000.0,
                bound: 12,
            },
        ];
        for e in &events {
            let v = e.to_value();
            let back = GateEvent::from_value(&v).expect("round trip");
            assert_eq!(*e, back);
        }
    }

    #[test]
    fn at_ms_projects_every_variant() {
        assert_eq!(
            GateEvent::Abort {
                at_ms: 7.5,
                conflicts: 0
            }
            .at_ms(),
            7.5
        );
        assert_eq!(
            GateEvent::Commit {
                at_ms: 8.5,
                response_ms: 1.0,
                conflicts: 0
            }
            .at_ms(),
            8.5
        );
    }
}
