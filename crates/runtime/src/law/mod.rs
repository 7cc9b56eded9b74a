//! Control laws: pure decision logic mapping window telemetry to MPL
//! bounds, held to the suppression-free `purity` lint scope.
//!
//! [`ControlLaw`], [`WindowSnapshot`] and [`PaperLaw`] (any `alc_core`
//! [`LoadController`] run unchanged) live in `alc_core::law`, beside the
//! loop that runs them in the simulator too, and are re-exported here
//! beside two self-*-style alternatives:
//!
//! * [`AimdLaw`] — additive-increase / multiplicative-decrease on an
//!   overload signal (abort ratio or tail latency), the classic
//!   congestion-avoidance shape used by self-* overload controllers.
//! * [`RetryBudgetLaw`] — retry-budget admission: completions earn retry
//!   credit, aborts spend it, and exhausting the budget triggers a
//!   multiplicative backoff. It is `alc_core`'s `RetryBudget` itself,
//!   a law by the same forwarding as [`PaperLaw`]'s.
//!
//! [`LoadController`]: alc_core::controller::LoadController

mod aimd;

pub use aimd::{AimdLaw, AimdParams};
pub use alc_core::controller::{RetryBudget as RetryBudgetLaw, RetryBudgetParams};
pub use alc_core::law::{ControlLaw, PaperLaw, WindowSnapshot};
