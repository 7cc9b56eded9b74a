//! `alc-runtime` — an embeddable admission-control runtime, with the
//! simulator as its conformance harness.
//!
//! This crate carries the paper's control stack out of the simulator and
//! into a shape a real server can link: worker threads call
//! [`ControlLoop::admit`] around each unit of work and report how it
//! ended; a timer calls [`ControlLoop::tick`] once per measurement
//! interval; the loop's [`ControlLaw`] adjusts the MPL bound the gate
//! enforces. The pieces:
//!
//! * [`control`] — [`ControlLoop`], the thread-safe wall-clock shell,
//!   wrapped around [`LoopCore`], the deterministic event-time core that
//!   owns telemetry + law + logging and never reads a clock: the loop
//!   the simulator's sample tick runs, from `alc_core::control`.
//! * [`law`] — the pure decision logic: [`ControlLaw`] over
//!   [`WindowSnapshot`]s, with [`PaperLaw`] running any `alc_core`
//!   controller unchanged (all three from `alc_core::law`), plus
//!   [`AimdLaw`] and [`RetryBudgetLaw`] as self-*-style alternatives.
//! * [`telemetry`] — [`Outcome`], and `alc_core`'s [`TelemetryWindow`]:
//!   the interval sampler plus allocation-free latency quantiles from a
//!   log-linear histogram (never low, at most 1/16 high).
//! * [`log`] — the JSONL gate-log format ([`JsonlSink`] writer,
//!   [`read_gate_log`] reader) over `alc_core::gatelog::GateEvent`, and
//!   [`read_jsonl`], the line reader every JSONL input goes through.
//! * [`metrics`] — [`MetricsSnapshot`]: the loop's live state (gate
//!   occupancy, cumulative counters, last window with its quantiles)
//!   flattened for export, with a byte-round-tripping JSONL form.
//! * [`replay`](mod@replay) — [`check_conformance`]: feed a recorded log back
//!   through a fresh [`LoopCore`] and require the decision sequence to
//!   match byte-for-byte.
//!
//! # Why the simulator is the conformance harness
//!
//! A controller's decisions are a pure function of its sampler's input
//! stream and harvest instants. The simulator records exactly that
//! stream (`Simulator::set_gate_log`), the JSONL format round-trips
//! every `f64` exactly, and the simulation and this crate run the same
//! loop, [`LoopCore`] — so replaying a simulated scenario through this
//! crate must reproduce the simulation's decision sequence bit-for-bit.
//! The checked-in traces under `scenarios/traces/` pin that property in
//! CI: the simulator's validated behavior *is* the runtime's acceptance
//! test.

#![warn(missing_docs)]

pub mod control;
pub mod law;
pub mod log;
pub mod metrics;
pub mod replay;
pub mod telemetry;

pub use control::{AdmissionPolicy, AdmittedPermit, ControlLoop, Decision, LoopCore};
pub use law::{
    AimdLaw, AimdParams, ControlLaw, PaperLaw, RetryBudgetLaw, RetryBudgetParams, WindowSnapshot,
};
pub use log::{
    event_line, read_gate_log, read_jsonl, write_gate_log, GateLogHeader, JsonlError, JsonlSink,
};
pub use metrics::{read_metrics_jsonl, write_metrics_jsonl, MetricsSnapshot};
pub use replay::{check_conformance, replay, Conformance};
pub use telemetry::{Outcome, TelemetryWindow};
