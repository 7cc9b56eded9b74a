//! `alc-tpsim` — the paper's §7 simulation model, as an event-driven
//! transaction processing system simulator.
//!
//! The model is closed (Figure 11): `N` statistically identical
//! transactions circulate between a set of terminals (think time), an
//! admission gate (the load-control enforcement point of §4.3), a
//! homogeneous multiprocessor CPU station with one shared FCFS queue, and
//! a contention-free constant-time disk. The logical model gives each
//! transaction `k` uniformly chosen data items accessed over `k + 2`
//! phases: initialization, `k` access phases with gradually growing data
//! set, and commit processing.
//!
//! Concurrency control is pluggable ([`cc::ConcurrencyControl`]):
//!
//! * [`cc::Certification`] — the timestamp certification (optimistic)
//!   scheme the paper simulates, "because an optimistic protocol is more
//!   interesting due to its relationship between data contention and
//!   resource contention";
//! * [`cc::TwoPhaseLocking`] — strict 2PL with waits-for deadlock
//!   detection, the blocking class of §1;
//! * [`cc::TimestampOrdering`] — basic T/O, the other non-blocking
//!   representative named in §1.
//!
//! Workload dynamics follow §8: the number of accessed items `k`, the
//! query fraction and the updaters' write-access fraction vary over time
//! via [`workload::WorkloadConfig`] schedules (jumps and sinusoids).
//!
//! The simulator binds any [`alc_core::controller::LoadController`] to its
//! admission gate through [`alc_core::control::LoopCore`], the control
//! loop `alc-runtime` embeds, and reports the trajectories the paper plots:
//! `n*(t)`, observed MPL, throughput, and abort rates.

#![warn(missing_docs)]

pub mod cc;
pub mod client;
pub mod config;
pub mod engine;
pub mod gate;
pub mod station;
pub mod txn;
pub mod workload;

pub use client::{ClientConfig, ClientStats, RetryPolicy};
pub use config::{ControlConfig, SystemConfig};
pub use engine::{RunStats, Simulator, Trajectories};
pub use workload::WorkloadConfig;
