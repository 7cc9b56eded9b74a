//! Closed-loop client populations: timeouts, retries, abandonment.
//!
//! The paper's closed model treats the terminal population as patient —
//! a terminal waits however long its transaction takes, so offered load
//! *falls* as the system congests. Real clients are impatient: they time
//! out, retry with backoff, and give up, which makes offered load a
//! function of observed latency — the loop that turns a transient fault
//! into a *metastable* failure where retry traffic holds the system down
//! long after the fault is repaired.
//!
//! This module holds the client-side data model; the state machine lives
//! in the engine (`Simulator::set_clients` and the `ClientIssue` /
//! `ClientTimeout` events). Each client cycles through
//! Thinking → Waiting (an attempt in flight) → either completion (back
//! to Thinking), or timeout → Backoff → retry, or abandonment. The
//! bookkeeping maintains two conservation identities pinned by tests:
//! `issued == committed + abandoned + in_flight` and
//! `attempts == first_attempts + retries`.

use alc_des::dist::Dist;

use crate::config::{ArrivalProcess, SystemConfig};

/// How a client waits before retrying a timed-out attempt: exponential
/// backoff with decorrelating jitter. Attempt `k` (1-based) waits
/// `min(base_ms × factor^(k−1), max_ms)` scaled by `1 − jitter × U[0,1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the first retry, ms.
    pub base_ms: f64,
    /// Multiplicative growth per further retry.
    pub factor: f64,
    /// Cap on the uncapped exponential delay, ms.
    pub max_ms: f64,
    /// Jitter fraction in `[0, 1]`: `0` = deterministic delay.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 100.0,
            factor: 2.0,
            max_ms: 5000.0,
            jitter: 0.5,
        }
    }
}

/// Configuration of one closed-loop client pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Number of clients (each occupies one terminal slot).
    pub population: u32,
    /// Patience: how long a client waits before declaring an attempt
    /// dead and consulting its retry policy.
    pub timeout: Dist,
    /// Retries allowed per issued request before abandoning.
    pub max_retries: u32,
    /// What happens after a timeout.
    pub retry: RetryPolicy,
    /// Gate-side retry shedding: bounce retry attempts that arrive while
    /// the gate is saturated instead of queueing them (first attempts
    /// are never shed).
    pub shed_retries: bool,
}

impl ClientConfig {
    /// A pool with the given population and timeout, default policy
    /// otherwise (exponential backoff, 3 retries, no shedding).
    pub fn new(population: u32, timeout: Dist) -> Self {
        ClientConfig {
            population,
            timeout,
            max_retries: 3,
            retry: RetryPolicy::default(),
            shed_retries: false,
        }
    }

    /// The first field a pool cannot run with on `sys`, as
    /// `<field> must …`.
    pub fn check(&self, sys: &SystemConfig) -> Result<(), String> {
        let rule = if !matches!(sys.arrival, ArrivalProcess::Closed) {
            "population must run under closed arrivals (clients are the arrival process)"
        } else if self.population == 0 {
            "population must be ≥ 1"
        } else if self.population > sys.terminals {
            "population must fit system.terminals"
        } else {
            return Ok(());
        };
        Err(rule.into())
    }
}

/// Client-side counters over the statistics window. The two conservation
/// identities (`issued == committed + abandoned + in_flight`,
/// `attempts == first_attempts + retries`) hold after every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Requests issued (a request spans all its attempts).
    pub issued: u64,
    /// First attempts of a request.
    pub first_attempts: u64,
    /// Total attempts (first attempts + retries).
    pub attempts: u64,
    /// Retry attempts.
    pub retries: u64,
    /// Requests that committed.
    pub committed: u64,
    /// Requests abandoned after exhausting their retries.
    pub abandoned: u64,
    /// Attempt timeouts observed.
    pub timeouts: u64,
    /// Retry attempts bounced at the gate by retry shedding.
    pub shed: u64,
    /// Requests currently outstanding (issued, neither committed nor
    /// abandoned yet).
    pub in_flight: u64,
}

impl ClientStats {
    /// Goodput: committed requests per second over `duration_ms`.
    pub fn goodput_per_sec(&self, duration_ms: f64) -> f64 {
        if duration_ms <= 0.0 {
            return 0.0;
        }
        self.committed as f64 * 1000.0 / duration_ms
    }

    /// Work amplification: attempts per issued request (`1.0` when no
    /// attempt was ever retried; `0.0` before any request was issued).
    pub fn retry_amplification(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.attempts as f64 / self.issued as f64
    }
}

/// Where a client currently is in its request cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClientPhase {
    /// Between requests; the next `ClientIssue` starts a fresh request.
    Thinking,
    /// An attempt is in flight and its timeout is armed.
    Waiting,
    /// Timed out; the pending `ClientIssue` is a retry of the same
    /// request.
    Backoff,
}

/// Per-client state machine bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Client {
    pub phase: ClientPhase,
    /// Tombstone counter: bumped whenever the client's pending calendar
    /// events (issue, timeout) become stale.
    pub generation: u64,
    /// Attempts made for the current request (0 while Thinking).
    pub attempt: u32,
}

impl Client {
    pub fn new() -> Self {
        Client {
            phase: ClientPhase::Thinking,
            generation: 0,
            attempt: 0,
        }
    }
}

/// The pool: per-client state plus the window's counters.
#[derive(Debug, Clone)]
pub(crate) struct ClientPool {
    pub cfg: ClientConfig,
    pub clients: Vec<Client>,
    pub stats: ClientStats,
}

impl ClientPool {
    pub fn new(cfg: ClientConfig) -> Self {
        ClientPool {
            clients: vec![Client::new(); cfg.population as usize], // alc-lint: allow(hot-alloc, reason="construction-time pool allocation")
            stats: ClientStats::default(),
            cfg,
        }
    }

    /// The deterministic part of the backoff delay for attempt number
    /// `attempt` (1-based); the caller applies jitter.
    pub fn backoff_base(&self, attempt: u32) -> f64 {
        let RetryPolicy {
            base_ms,
            factor,
            max_ms,
            ..
        } = self.cfg.retry;
        let exp = attempt.saturating_sub(1).min(63);
        (base_ms * factor.powi(exp as i32)).min(max_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_identities_hold_on_the_default() {
        let s = ClientStats::default();
        assert_eq!(s.issued, s.committed + s.abandoned + s.in_flight);
        assert_eq!(s.attempts, s.first_attempts + s.retries);
        assert_eq!(s.retry_amplification(), 0.0);
        assert_eq!(s.goodput_per_sec(1000.0), 0.0);
    }

    #[test]
    fn goodput_and_amplification_derive_from_counters() {
        let s = ClientStats {
            issued: 10,
            first_attempts: 10,
            attempts: 25,
            retries: 15,
            committed: 8,
            abandoned: 1,
            timeouts: 15,
            shed: 0,
            in_flight: 1,
        };
        assert!((s.goodput_per_sec(2000.0) - 4.0).abs() < 1e-12);
        assert!((s.retry_amplification() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn backoff_curve_doubles_and_caps() {
        let mut cfg = ClientConfig::new(4, Dist::constant(500.0));
        cfg.retry = RetryPolicy {
            base_ms: 100.0,
            factor: 2.0,
            max_ms: 350.0,
            jitter: 0.0,
        };
        let pool = ClientPool::new(cfg);
        assert_eq!(pool.backoff_base(1), 100.0);
        assert_eq!(pool.backoff_base(2), 200.0);
        assert_eq!(pool.backoff_base(3), 350.0); // capped
        assert_eq!(pool.backoff_base(9), 350.0);
    }
}
