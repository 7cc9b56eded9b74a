//! `alc-des` — a small, deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate under the transaction-processing simulator of
//! `alc-tpsim`. It provides exactly the pieces a closed queueing-network
//! simulation needs and nothing more:
//!
//! * [`SimTime`] — simulation clock values (milliseconds as `f64`) with a
//!   total order that is safe for use in the event calendar.
//! * [`Calendar`] — the future event list. Events scheduled for equal times
//!   fire in insertion order, which makes runs bit-for-bit reproducible.
//! * [`rng`] — seedable random-number streams. Every model component draws
//!   from its own substream derived from one master seed, so adding a
//!   component never perturbs the random sequence of another.
//! * [`dist`] — the service/think-time distributions used by the paper's
//!   model (constant, uniform, exponential, Erlang, hyperexponential, Zipf).
//! * [`stats`] — online statistics: a Welford running mean, time-weighted
//!   averages, and the confidence levels [`interval`] is stated at.
//! * [`interval`] — the §5 measurement-interval theory: how long an
//!   interval must be to estimate throughput to a given accuracy and
//!   confidence, from the departure process's rate and second moments.
//! * [`series`] — time-series recording for trajectory output (the paper's
//!   figures are trajectories and curves).
//!
//! The kernel is intentionally synchronous and single-threaded: determinism
//! and replayability matter more for a simulation study than parallelism,
//! and all experiments in the reproduction complete in seconds.

#![warn(missing_docs)]

pub mod calendar;
pub mod dist;
pub mod interval;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use calendar::{Calendar, EventToken, LaneId};
pub use time::SimTime;
