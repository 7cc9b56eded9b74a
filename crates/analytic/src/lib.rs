//! `alc-analytic` — analytic companion models for the load-control study.
//!
//! The paper argues (§1) that analytically derived "rules of thumb" — Tay's
//! `k²n/D < 1.5` locking criterion and Iyer's "≤ 0.75 conflicts per
//! transaction" — cannot be trusted across all load situations, which is
//! the motivation for model-independent feedback control. To make that
//! argument reproducible we implement the models themselves:
//!
//! * [`mva`] — exact load-dependent Mean Value Analysis of the closed
//!   resource network (multiserver CPU + delays), the run-throughput
//!   backbone of the OCC model and of simulator validation.
//! * [`tay`] — the mean-value locking model of Tay, Goodman & Suri (ACM
//!   TODS 1985): blocked transactions grow quadratically in the MPL.
//! * [`occ`] — an optimistic-CC conflict/throughput model in the spirit of
//!   Dan, Towsley & Kohler (ICDE 1988): restart probability rises with the
//!   MPL until wasted re-execution work collapses throughput.
//! * [`surface`] — synthetic load–performance surfaces `P(n, t)` (unimodal
//!   ridge, flat hump, jumps, sinusoidal drift). These drive controller
//!   unit tests and reproduce the pathological situations of Figures 7/8
//!   without simulator noise.
//!
//! The three engine models are each checked against the engine: `mva` at
//! the conflict-free limit, `occ` against certification and `tay` against
//! 2PL at low contention.

#![warn(missing_docs)]

pub mod lambert;
pub mod mva;
pub mod occ;
pub mod surface;
pub mod tay;
