//! Meta-control: closed-loop concurrency-control *protocol* selection.
//!
//! The paper's load controller adapts the MPL bound to measured conflict;
//! this layer sits one level above it and adapts the *concurrency-control
//! protocol itself* from the same per-interval conflict state, in the
//! spirit of O|R|P|E (Lessner et al., arXiv:2308.09121): keep a small set
//! of candidate protocols, watch the measured contention online, and
//! switch to the candidate the current workload favours. Bartolini et
//! al.'s self-* overload control (arXiv:0802.2543) supplies the stability
//! discipline: every policy here is wrapped in dwell-time, cooldown and
//! hysteresis guards so that a noisy conflict signal — or the signal
//! *discontinuity* the switch itself causes (each protocol counts
//! conflicts differently) — cannot drive protocol flapping.
//!
//! This crate knows nothing about concrete protocols: a policy picks
//! among `n` *candidate indices*. The simulation engine (or a real
//! server) maps indices to protocols and performs the actual
//! drain-and-swap; see `alc_tpsim::engine::Simulator::set_adaptive_cc`.
//!
//! # The pieces
//!
//! * [`MetaPolicy`] — the decision trait: one call per interval with the
//!   same [`Measurement`] the MPL controller sees, returns `Some(target)`
//!   to request a protocol switch.
//! * [`SwitchGuard`] / [`GuardParams`] — the shared anti-oscillation
//!   guards (minimum dwell time between switches, post-switch cooldown
//!   during which observations are discarded, relative hysteresis band).
//! * [`ConflictThreshold`] — escalates along an ordered candidate ladder
//!   when the EWMA'd conflict ratio crosses a threshold band.
//! * [`RestartRate`] — the same ladder driven by the abort (restart)
//!   ratio instead of the conflict ratio.
//! * [`ShadowScore`] — O|R|P|E-style running per-candidate score
//!   estimates of delivered throughput; switches to the best-scoring
//!   candidate when it beats the active one by the hysteresis margin.
//!
//! All policies are pure functions of their observation sequence — no
//! randomness, no clocks — so adaptive runs stay exactly as deterministic
//! and replayable as scheduled ones.

mod ladder;
mod shadow;

pub use ladder::{ConflictThreshold, RestartRate};
pub use shadow::ShadowScore;

use crate::controller::require;
use crate::measure::Measurement;

/// The shared anti-oscillation guard parameters. The switch itself
/// perturbs the measured signal (drain dip, fresh protocol state, a
/// different conflict-counting convention), so naive threshold policies
/// flap; these three knobs are the remedy the ablation scenario sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardParams {
    /// Minimum time between two switch decisions, ms. Also applies from
    /// run start: the first switch cannot fire before `min_dwell_ms`.
    pub min_dwell_ms: f64,
    /// Post-switch settling window, ms: observations inside it are
    /// discarded entirely (they measure the drain and the fresh
    /// protocol's cold state, not the workload).
    pub cooldown_ms: f64,
    /// Relative dead band. Ladder policies escalate above
    /// `threshold * (1 + hysteresis)` and de-escalate below
    /// `threshold * (1 - hysteresis)`; the shadow policy requires a
    /// challenger to beat the active score by the same factor.
    pub hysteresis: f64,
}

impl GuardParams {
    /// The first field [`SwitchGuard::new`] cannot run with, as
    /// `<field> must …`.
    pub fn check(&self) -> Result<(), String> {
        require(self.min_dwell_ms >= 0.0, "min_dwell_ms must be ≥ 0")?;
        require(self.cooldown_ms >= 0.0, "cooldown_ms must be ≥ 0")?;
        require((0.0..1.0).contains(&self.hysteresis), "hysteresis must lie in [0, 1)")
    }
}

/// The rules every policy shares, as `<argument> must …`: a choice
/// among at least two candidates, an EWMA weight in `(0, 1]`, and a
/// valid guard.
fn check_common(candidates: usize, ewma_weight: f64, guard: &GuardParams) -> Result<(), String> {
    require(candidates >= 2, "candidates must number at least 2")?;
    require(ewma_weight > 0.0 && ewma_weight <= 1.0, "ewma_weight must lie in (0, 1]")?;
    guard.check()
}

/// Tracks the time of the last switch and enforces the dwell/cooldown
/// guards. Run start counts as a switch at t = 0, so a freshly started
/// system settles before the first decision just like a freshly swapped
/// protocol does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchGuard {
    params: GuardParams,
    last_switch_ms: f64,
}

impl SwitchGuard {
    /// Creates a guard; panics exactly when [`GuardParams::check`] errs.
    pub fn new(params: GuardParams) -> Self {
        params.check().expect("invalid guard parameters");
        SwitchGuard {
            params,
            last_switch_ms: 0.0,
        }
    }

    /// The guard parameters in force.
    pub fn params(&self) -> GuardParams {
        self.params
    }

    /// True while the post-switch cooldown holds at `now_ms`:
    /// observations should be discarded, not smoothed in.
    pub fn settling(&self, now_ms: f64) -> bool {
        now_ms - self.last_switch_ms < self.params.cooldown_ms
    }

    /// True when a switch decision is permitted at `now_ms` (the dwell
    /// time since the previous switch has fully elapsed).
    pub fn may_switch(&self, now_ms: f64) -> bool {
        now_ms - self.last_switch_ms >= self.params.min_dwell_ms
    }

    /// Records a committed switch decision at `now_ms`.
    pub fn note_switch(&mut self, now_ms: f64) {
        self.last_switch_ms = now_ms;
    }

    /// Re-anchors the guards at the swap's *completion*: a drain can
    /// outlast the cooldown measured from the decision, so dwell and
    /// cooldown count from whichever is later.
    pub fn note_swap_complete(&mut self, at_ms: f64) {
        self.last_switch_ms = self.last_switch_ms.max(at_ms);
    }

    /// Restores the initial state.
    pub fn reset(&mut self) {
        self.last_switch_ms = 0.0;
    }
}

/// A protocol-selection policy over `n` candidates.
///
/// The engine calls [`MetaPolicy::decide`] once per measurement interval
/// (never while a previous switch is still draining). Returning
/// `Some(target)` with `target != active` is a *committed* decision: the
/// engine will perform the drain-and-swap, so the policy must update its
/// own guard state before returning. Policies must be deterministic
/// functions of their observation sequence.
pub trait MetaPolicy: Send {
    /// Policy name for reports and traces.
    fn name(&self) -> &'static str;

    /// Number of candidates the policy selects among.
    fn candidate_count(&self) -> usize;

    /// Consumes one interval's measurement with `active` currently in
    /// force; returns the candidate to switch to, if any.
    fn decide(&mut self, active: usize, m: &Measurement) -> Option<usize>;

    /// Notifies the policy that the requested swap *completed* at
    /// `completed_at_ms` (the end of the drain). A decision only starts
    /// the drain; in-flight transactions may take a while to clear, and
    /// the first samples after the swap measure the drain dip and the
    /// fresh protocol's cold state. Implementations should re-anchor
    /// their dwell/cooldown guards here so the cooldown counts from the
    /// swap, not from the decision. Default: no-op.
    fn note_swap_complete(&mut self, completed_at_ms: f64) {
        let _ = completed_at_ms;
    }

    /// Restores the initial state (used between experiment repetitions).
    fn reset(&mut self);
}

/// A one-second interval ending at `at_ms`: 100 commits, no aborts,
/// `conflicts` conflicts per commit.
#[cfg(test)]
pub(crate) fn obs_at(at_ms: f64, conflicts: f64) -> Measurement {
    Measurement {
        departures: 100,
        conflicts_per_txn: conflicts,
        ..Measurement::basic(at_ms, 1000.0, 0.0, 10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_enforces_dwell_and_cooldown() {
        let mut g = SwitchGuard::new(GuardParams {
            min_dwell_ms: 10_000.0,
            cooldown_ms: 3_000.0,
            hysteresis: 0.2,
        });
        // Run start counts as a switch at t = 0.
        assert!(g.settling(2_999.0));
        assert!(!g.settling(3_000.0));
        assert!(!g.may_switch(9_999.0));
        assert!(g.may_switch(10_000.0));
        g.note_switch(10_000.0);
        assert!(g.settling(12_000.0));
        assert!(!g.may_switch(19_999.0));
        assert!(g.may_switch(20_000.0));
        g.reset();
        assert!(!g.may_switch(5_000.0));
    }

    #[test]
    fn guard_params_validate_ranges() {
        for bad in [
            GuardParams {
                min_dwell_ms: -1.0,
                cooldown_ms: 0.0,
                hysteresis: 0.1,
            },
            GuardParams {
                min_dwell_ms: 0.0,
                cooldown_ms: f64::NAN,
                hysteresis: 0.1,
            },
            GuardParams {
                min_dwell_ms: 0.0,
                cooldown_ms: 0.0,
                hysteresis: 1.0,
            },
        ] {
            assert!(bad.check().is_err(), "{bad:?} accepted");
        }
        assert!(GuardParams {
            min_dwell_ms: 0.0,
            cooldown_ms: 0.0,
            hysteresis: 0.0,
        }
        .check()
        .is_ok());
    }
}
