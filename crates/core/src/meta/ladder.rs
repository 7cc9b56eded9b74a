//! Threshold-ladder policies: escalate/de-escalate along an ordered
//! candidate list when a smoothed contention signal crosses a band.
//!
//! The candidate order is semantic: index 0 is the protocol for the
//! *calmest* workload, the last index for the most contended one (e.g.
//! `[certification, 2pl]`: optimistic while conflicts are rare, blocking
//! once wasted restarts dominate). The policy climbs one rung when the
//! EWMA'd signal exceeds `threshold * (1 + hysteresis)` and descends one
//! rung when it falls below `threshold * (1 - hysteresis)` — the dead
//! band between the two edges is what absorbs the signal discontinuity a
//! protocol swap itself causes (each protocol counts conflicts under its
//! own convention).

use crate::controller::require;
use crate::estimator::Ewma;
use crate::measure::Measurement;

use super::{check_common, GuardParams, MetaPolicy, SwitchGuard};

/// Which contention signal a ladder policy watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LadderSignal {
    /// Mean data conflicts per committed transaction.
    ConflictsPerTxn,
    /// Aborted runs / finished runs (the restart rate).
    AbortRatio,
}

/// The shared ladder machinery behind [`ConflictThreshold`] and
/// [`RestartRate`].
#[derive(Debug, Clone)]
struct Ladder {
    signal: LadderSignal,
    candidates: usize,
    threshold: f64,
    ewma: Ewma,
    guard: SwitchGuard,
}

impl Ladder {
    /// Assembles the ladder; the public constructors check first.
    fn new(
        signal: LadderSignal,
        candidates: usize,
        threshold: f64,
        ewma_weight: f64,
        guard: GuardParams,
    ) -> Self {
        Ladder {
            signal,
            candidates,
            threshold,
            ewma: Ewma::new(ewma_weight),
            guard: SwitchGuard::new(guard),
        }
    }

    fn decide(&mut self, active: usize, m: &Measurement) -> Option<usize> {
        debug_assert!(active < self.candidates);
        // Cooldown: the interval straddles the swap (drain dip, cold
        // protocol state) — discard it entirely instead of smoothing the
        // transient into the signal.
        if self.guard.settling(m.at_ms) {
            return None;
        }
        let raw = match self.signal {
            LadderSignal::ConflictsPerTxn => m.conflicts_per_txn,
            LadderSignal::AbortRatio => m.abort_ratio(),
        };
        let v = self.ewma.update(raw);
        if !self.guard.may_switch(m.at_ms) {
            return None;
        }
        let h = self.guard.params().hysteresis;
        let target = if v > self.threshold * (1.0 + h) && active + 1 < self.candidates {
            active + 1
        } else if v < self.threshold * (1.0 - h) && active > 0 {
            active - 1
        } else {
            return None;
        };
        self.guard.note_switch(m.at_ms);
        // The new protocol reports the signal under its own convention;
        // forget the old protocol's history rather than blending the two.
        self.ewma.reset();
        Some(target)
    }

    fn reset(&mut self) {
        self.ewma.reset();
        self.guard.reset();
    }
}

/// Threshold-with-hysteresis on the EWMA'd conflict ratio (conflicts per
/// committed transaction) — the signal Iyer's rule of thumb bounds,
/// turned into a protocol-selection ladder.
#[derive(Debug, Clone)]
pub struct ConflictThreshold {
    ladder: Ladder,
}

impl ConflictThreshold {
    /// The first argument [`ConflictThreshold::new`] cannot run with, as
    /// `<argument> must …` (every ladder's rules).
    pub fn check(
        candidates: usize,
        threshold: f64,
        ewma_weight: f64,
        guard: &GuardParams,
    ) -> Result<(), String> {
        check_common(candidates, ewma_weight, guard)?;
        require(
            threshold > 0.0 && threshold.is_finite(),
            "threshold must be positive and finite",
        )
    }

    /// Creates the policy over `candidates` ordered rungs. `threshold`
    /// is the centre of the conflict-ratio band, `ewma_weight ∈ (0, 1]`
    /// the smoothing weight on new observations. Panics exactly when
    /// [`ConflictThreshold::check`] errs.
    pub fn new(candidates: usize, threshold: f64, ewma_weight: f64, guard: GuardParams) -> Self {
        Self::check(candidates, threshold, ewma_weight, &guard)
            .expect("invalid conflict-threshold arguments");
        ConflictThreshold {
            ladder: Ladder::new(
                LadderSignal::ConflictsPerTxn,
                candidates,
                threshold,
                ewma_weight,
                guard,
            ),
        }
    }
}

impl MetaPolicy for ConflictThreshold {
    fn name(&self) -> &'static str {
        "conflict-threshold"
    }

    fn candidate_count(&self) -> usize {
        self.ladder.candidates
    }

    fn decide(&mut self, active: usize, m: &Measurement) -> Option<usize> {
        self.ladder.decide(active, m)
    }

    fn note_swap_complete(&mut self, completed_at_ms: f64) {
        self.ladder.guard.note_swap_complete(completed_at_ms);
    }

    fn reset(&mut self) {
        self.ladder.reset();
    }
}

/// The same ladder driven by the EWMA'd restart (abort) ratio: escalate
/// when the fraction of runs that abort and restart crosses the band.
/// Restart work is what thrashes an optimistic protocol, so this signal
/// reacts to wasted execution rather than raw conflict counts.
#[derive(Debug, Clone)]
pub struct RestartRate {
    ladder: Ladder,
}

impl RestartRate {
    /// The first argument [`RestartRate::new`] cannot run with, as
    /// `<argument> must …`: every ladder's rules, and a threshold below 1
    /// (it is an abort ratio).
    pub fn check(
        candidates: usize,
        threshold: f64,
        ewma_weight: f64,
        guard: &GuardParams,
    ) -> Result<(), String> {
        ConflictThreshold::check(candidates, threshold, ewma_weight, guard)?;
        require(threshold < 1.0, "threshold must be < 1")
    }

    /// Creates the policy; `threshold ∈ (0, 1)` is the centre of the
    /// abort-ratio band. Panics exactly when [`RestartRate::check`]
    /// errs.
    pub fn new(candidates: usize, threshold: f64, ewma_weight: f64, guard: GuardParams) -> Self {
        Self::check(candidates, threshold, ewma_weight, &guard)
            .expect("invalid restart-rate arguments");
        RestartRate {
            ladder: Ladder::new(
                LadderSignal::AbortRatio,
                candidates,
                threshold,
                ewma_weight,
                guard,
            ),
        }
    }
}

impl MetaPolicy for RestartRate {
    fn name(&self) -> &'static str {
        "restart-rate"
    }

    fn candidate_count(&self) -> usize {
        self.ladder.candidates
    }

    fn decide(&mut self, active: usize, m: &Measurement) -> Option<usize> {
        self.ladder.decide(active, m)
    }

    fn note_swap_complete(&mut self, completed_at_ms: f64) {
        self.ladder.guard.note_swap_complete(completed_at_ms);
    }

    fn reset(&mut self) {
        self.ladder.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::super::obs_at;
    use super::*;

    fn guard(dwell: f64, cooldown: f64, hysteresis: f64) -> GuardParams {
        GuardParams {
            min_dwell_ms: dwell,
            cooldown_ms: cooldown,
            hysteresis,
        }
    }

    #[test]
    fn escalates_and_deescalates_across_the_band() {
        let mut p = ConflictThreshold::new(2, 1.0, 1.0, guard(0.0, 0.0, 0.2));
        // Calm: well below the lower edge — no move off rung 0.
        assert_eq!(p.decide(0, &obs_at(1_000.0, 0.1)), None);
        // Hot: above the upper edge (1.2) — climb.
        assert_eq!(p.decide(0, &obs_at(2_000.0, 2.0)), Some(1));
        // Already at the top rung: stays.
        assert_eq!(p.decide(1, &obs_at(3_000.0, 5.0)), None);
        // Calm again: below the lower edge (0.8) — descend.
        assert_eq!(p.decide(1, &obs_at(4_000.0, 0.1)), Some(0));
    }

    #[test]
    fn dead_band_absorbs_mid_range_signals() {
        let mut p = ConflictThreshold::new(2, 1.0, 1.0, guard(0.0, 0.0, 0.5));
        for (i, v) in [0.6, 1.4, 0.9, 1.2].into_iter().enumerate() {
            assert_eq!(
                p.decide(0, &obs_at(1_000.0 * (i + 1) as f64, v)),
                None,
                "in-band value {v} caused a switch"
            );
        }
    }

    /// The dwell guard: no switch may occur within `min_dwell_ms` of the
    /// previous one, however loud the signal — the anti-oscillation
    /// contract the adaptive scenarios rely on.
    #[test]
    fn no_switch_within_min_dwell_of_the_previous_one() {
        let dwell = 10_000.0;
        let mut p = ConflictThreshold::new(3, 1.0, 1.0, guard(dwell, 0.0, 0.0));
        let mut active = 0usize;
        let mut switch_times = Vec::new();
        // A violently alternating signal, sampled every second.
        for i in 1..200 {
            let t = 1_000.0 * f64::from(i);
            let v = if (i / 3) % 2 == 0 { 50.0 } else { 0.001 };
            if let Some(next) = p.decide(active, &obs_at(t, v)) {
                switch_times.push(t);
                active = next;
            }
        }
        assert!(
            switch_times.len() >= 2,
            "the scenario must actually switch to prove anything"
        );
        assert!(
            switch_times[0] >= dwell,
            "first switch at {} fired before the initial dwell",
            switch_times[0]
        );
        for w in switch_times.windows(2) {
            assert!(
                w[1] - w[0] >= dwell,
                "switches at {} and {} violate min_dwell",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn cooldown_discards_post_switch_observations() {
        let mut p = ConflictThreshold::new(2, 1.0, 1.0, guard(0.0, 5_000.0, 0.0));
        // t=1s..4s sit inside the initial cooldown: discarded.
        assert_eq!(p.decide(0, &obs_at(1_000.0, 100.0)), None);
        assert_eq!(p.decide(0, &obs_at(4_999.0, 100.0)), None);
        // First observation past the cooldown acts.
        assert_eq!(p.decide(0, &obs_at(5_000.0, 100.0)), Some(1));
        // And the switch re-arms the cooldown.
        assert_eq!(p.decide(1, &obs_at(6_000.0, 0.0)), None);
        assert_eq!(p.decide(1, &obs_at(11_000.0, 0.0)), Some(0));
    }

    /// A drain that outlasts the cooldown must not leak the post-swap
    /// transient into the signal: `note_swap_complete` re-anchors the
    /// guards at the swap, so the cooldown counts from there.
    #[test]
    fn swap_completion_reanchors_cooldown_and_dwell() {
        let mut p = ConflictThreshold::new(2, 1.0, 1.0, guard(4_000.0, 2_000.0, 0.0));
        // Decision at t=5s; the drain takes until t=8s.
        assert_eq!(p.decide(0, &obs_at(5_000.0, 100.0)), Some(1));
        p.note_swap_complete(8_000.0);
        // t=9s is within the re-anchored cooldown (8s + 2s): discarded.
        assert_eq!(p.decide(1, &obs_at(9_000.0, 0.0)), None);
        // And the dwell counts from the swap too: nothing before 12s.
        assert_eq!(p.decide(1, &obs_at(11_000.0, 0.0)), None);
        assert_eq!(p.decide(1, &obs_at(12_000.0, 0.0)), Some(0));
    }

    #[test]
    fn zero_guards_flap_freely() {
        // The ablation baseline: with no dwell, no cooldown and no
        // hysteresis, an alternating signal flips the ladder every
        // interval — the pathology the guards exist to prevent.
        let mut p = ConflictThreshold::new(2, 1.0, 1.0, guard(0.0, 0.0, 0.0));
        let mut active = 0usize;
        let mut switches = 0;
        for i in 1..100 {
            let v = if i % 2 == 0 { 10.0 } else { 0.001 };
            if let Some(next) = p.decide(active, &obs_at(1_000.0 * f64::from(i), v)) {
                active = next;
                switches += 1;
            }
        }
        assert!(switches > 40, "expected heavy flapping, saw {switches}");
    }

    #[test]
    fn restart_rate_watches_abort_ratio() {
        let mut p = RestartRate::new(2, 0.3, 1.0, guard(0.0, 0.0, 0.0));
        let mut calm = obs_at(1_000.0, 0.0);
        (calm.departures, calm.aborts) = (95, 5);
        assert_eq!(p.decide(0, &calm), None);
        let mut hot = obs_at(2_000.0, 0.0);
        (hot.departures, hot.aborts) = (40, 60);
        assert_eq!(p.decide(0, &hot), Some(1));
    }

    #[test]
    fn decisions_are_deterministic_across_instances() {
        let mk = || ConflictThreshold::new(3, 0.8, 0.4, guard(4_000.0, 2_000.0, 0.3));
        let mut a = mk();
        let mut b = mk();
        let mut active_a = 0usize;
        let mut active_b = 0usize;
        for i in 1u64..300 {
            let t = 500.0 * i as f64;
            let v = ((i * 2_654_435_761) % 97) as f64 / 24.0;
            let da = a.decide(active_a, &obs_at(t, v));
            let db = b.decide(active_b, &obs_at(t, v));
            assert_eq!(da, db, "divergence at step {i}");
            if let Some(n) = da {
                active_a = n;
                active_b = n;
            }
        }
    }
}
