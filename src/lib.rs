//! Facade crate for the adaptive load control reproduction.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests and downstream users can depend on a single package:
//!
//! * [`core`] (`alc-core`) — the paper's contribution: the Incremental
//!   Steps and Parabola Approximation MPL controllers, the IS→PA hybrid,
//!   the §5 self-tuning outer loops, the RLS estimator, baseline policies
//!   and a thread-safe adaptive admission gate.
//! * [`tpsim`] (`alc-tpsim`) — the transaction processing simulator
//!   (closed terminals or open arrivals) with six CC protocols: OCC
//!   certification, 2PL with deadlock detection, wound-wait, wait-die,
//!   basic and multiversion timestamp ordering.
//! * [`des`] (`alc-des`) — the discrete-event simulation kernel.
//! * [`analytic`] (`alc-analytic`) — companion analytic models (MVA, Tay
//!   locking model, OCC conflict model, synthetic performance surfaces).
//! * [`scenario`] (`alc-scenario`) — the declarative scenario DSL:
//!   nonstationary experiments (jumps, ramps, bursts, trace replay) as
//!   JSON specs compiled into engine run plans and executed by the
//!   `scenario` binary.
//! * [`runtime`] (`alc-runtime`) — the embeddable admission-control
//!   runtime: a thread-safe gate driven by control laws (the paper's
//!   controllers unchanged, AIMD, retry-budget), JSONL gate logs, and
//!   the replay driver that pins runtime decisions byte-identical to
//!   the simulator's.
//! * [`trace`] (`alc-trace`) — span/event tracing shared by the
//!   simulator and the runtime: deterministic lifecycle spans and
//!   decision markers streamed as Chrome/Perfetto trace JSON.

pub use alc_analytic as analytic;
pub use alc_core as core;
pub use alc_des as des;
pub use alc_runtime as runtime;
pub use alc_scenario as scenario;
pub use alc_tpsim as tpsim;
pub use alc_trace as trace;
