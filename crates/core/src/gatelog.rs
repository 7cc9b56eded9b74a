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
//! An event is written as a [`Value`] by [`GateEvent::to_value`] and
//! read back by [`GateEvent::from_value`], through the vendored serde's
//! strict object reader; the JSONL framing (one externally-tagged event
//! per line) lives in `alc-runtime`, which also provides the replay
//! driver. This module only defines the vocabulary, its one `Value`
//! form and the [`GateLogSink`] trait the recorders call, keeping
//! `alc-core` free of I/O.

use serde::{Error, Obj, Value};

/// One observable event at the admission gate.
///
/// Field order and naming are part of the on-disk format: the JSONL
/// writer emits fields in [`GateEvent::to_value`]'s order, and the
/// conformance pin compares serialized decision lines byte-for-byte.
/// Timestamps are event-time milliseconds from the driver's epoch
/// (simulation time for the simulator, time since `Runtime`
/// construction for the runtime) and round-trip exactly through the
/// shim's shortest-representation f64 formatting.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// The event as written to disk: `{"<Variant>": {<field>: …}}`, its
    /// fields in declaration order.
    pub fn to_value(&self) -> Value {
        let num = |k: &str, x: f64| (k.to_string(), Value::Num(x));
        let int = |k: &str, x: u64| (k.to_string(), Value::U64(x));
        let (tag, fields) = match *self {
            GateEvent::Mpl { at_ms, in_system } => (
                "Mpl",
                vec![num("at_ms", at_ms), int("in_system", in_system.into())],
            ),
            GateEvent::Commit {
                at_ms,
                response_ms,
                conflicts,
            } => (
                "Commit",
                vec![
                    num("at_ms", at_ms),
                    num("response_ms", response_ms),
                    int("conflicts", conflicts),
                ],
            ),
            GateEvent::Abort { at_ms, conflicts } => (
                "Abort",
                vec![num("at_ms", at_ms), int("conflicts", conflicts)],
            ),
            GateEvent::Decision { at_ms, bound } => (
                "Decision",
                vec![num("at_ms", at_ms), int("bound", bound.into())],
            ),
        };
        Value::Map(vec![(tag.to_string(), Value::Map(fields))])
    }

    /// Reads what [`GateEvent::to_value`] writes: a single-key object
    /// naming the variant, whose payload has exactly the variant's
    /// fields, each once and exact.
    pub fn from_value(v: &Value) -> Result<Self, Error> {
        const TAGS: [&str; 4] = ["Mpl", "Commit", "Abort", "Decision"];
        let Some([(tag, payload)]) = v.as_map() else {
            return Err(Error::custom(format!(
                "a gate event must be a single-key object ({})",
                TAGS.join("/")
            )));
        };
        let mut o = Obj::open(payload, format!("GateEvent::{tag}"))?;
        let event = match tag.as_str() {
            "Mpl" => GateEvent::Mpl {
                at_ms: o.f64("at_ms")?,
                in_system: o.u32("in_system")?,
            },
            "Commit" => GateEvent::Commit {
                at_ms: o.f64("at_ms")?,
                response_ms: o.f64("response_ms")?,
                conflicts: o.u64("conflicts")?,
            },
            "Abort" => GateEvent::Abort {
                at_ms: o.f64("at_ms")?,
                conflicts: o.u64("conflicts")?,
            },
            "Decision" => GateEvent::Decision {
                at_ms: o.f64("at_ms")?,
                bound: o.u32("bound")?,
            },
            other => return Err(serde::unknown_key("GateEvent", other, TAGS)),
        };
        o.finish()?;
        Ok(event)
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
