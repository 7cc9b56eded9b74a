//! `alc-core` — adaptive load control for transaction processing systems.
//!
//! This crate is the reproduction's primary contribution, after Heiss &
//! Wagner, *Adaptive Load Control in Transaction Processing Systems*,
//! VLDB 1991: feedback controllers that adjust an upper bound `n*` on the
//! number of concurrently running transactions (the multiprogramming
//! level, MPL) so the system sits at the peak of its load–throughput
//! function instead of thrashing beyond it.
//!
//! # The pieces
//!
//! * [`controller`] — the [`controller::LoadController`] trait and its
//!   implementations:
//!   [`controller::IncrementalSteps`] (§4.1, zig-zag ridge tracking),
//!   [`controller::ParabolaApproximation`] (§4.2, recursive least squares
//!   with exponentially fading memory and vertex seeking), plus the
//!   baselines the paper argues against: a fixed bound, no bound, Tay's
//!   `k²n/D < 1.5` rule and Iyer's `conflicts/txn ≤ 0.75` rule (§1).
//! * [`estimator`] — the numerical machinery: RLS with forgetting
//!   ([`estimator::Rls`]), EWMA smoothing, quadratic-model utilities.
//! * [`meta`] — the layer *above* the MPL controllers: closed-loop
//!   concurrency-control **protocol** selection ([`meta::MetaPolicy`]),
//!   with threshold/restart-rate ladders and O|R|P|E-style shadow
//!   scoring, all wrapped in dwell/cooldown/hysteresis guards.
//! * [`measure`] — the [`measure::Measurement`] fed to controllers once
//!   per interval, and the performance indicators of §6.
//! * [`sampler`] — building measurements from raw departure events, one
//!   harvest per measurement interval.
//! * [`gate`] — a production-grade, thread-safe admission gate
//!   ([`gate::AdaptiveGate`]): FIFO admission under a live-updatable
//!   limit, RAII permits, wait statistics. This is the enforcement
//!   mechanism of §4.3 usable in a real server, not only in simulation.
//! * [`gatelog`] — the replayable record of what the control stack
//!   observes ([`gatelog::GateEvent`], [`gatelog::GateLogSink`]): the
//!   shared vocabulary that lets `alc-runtime` replay simulator logs and
//!   prove decision-sequence conformance.
//! * [`control`] — [`control::LoopCore`], the one control loop: gate
//!   events feed its [`telemetry::TelemetryWindow`] (the sampler plus
//!   latency quantiles from a histogram, within 1/16), each interval's
//!   window goes to a [`law::ControlLaw`] ([`law::PaperLaw`] runs any
//!   controller), and the gate log records both. The simulator's sample
//!   tick, the wall-clock `alc_runtime::ControlLoop` and `alc_runtime`'s
//!   replay all run it.
//!
//! # Quick start
//!
//! ```
//! use alc_core::controller::{IncrementalSteps, IsParams, LoadController};
//! use alc_core::measure::Measurement;
//!
//! let mut ctrl = IncrementalSteps::new(IsParams {
//!     initial_bound: 10,
//!     min_bound: 1,
//!     max_bound: 100,
//!     ..IsParams::default()
//! });
//!
//! // Feed one measurement per interval; the controller returns the new MPL
//! // bound. Here performance improves as load grows, so the bound rises.
//! let mut bound = ctrl.current_bound();
//! for step in 0..10 {
//!     let m = Measurement::basic(step as f64 * 1000.0, 1000.0, bound as f64, bound as f64);
//!     bound = ctrl.update(&m);
//! }
//! assert!(bound > 10);
//! ```

#![warn(missing_docs)]

pub mod control;
pub mod controller;
pub mod estimator;
pub mod gate;
pub mod gatelog;
pub mod law;
pub mod measure;
pub mod meta;
pub mod sampler;
pub mod telemetry;

pub use controller::{
    FixedBound, IncrementalSteps, IsParams, IyerRule, LoadController, PaParams,
    ParabolaApproximation, TayRule, Unlimited,
};
pub use gate::{AdaptiveGate, GateStats, Permit};
pub use gatelog::{GateEvent, GateLogSink};
pub use measure::{Measurement, PerfIndicator};
