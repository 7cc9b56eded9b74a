//! Shadow scoring: O|R|P|E-style running per-candidate score estimates.
//!
//! Where the ladder policies react to a *signal level*, this policy
//! compares the candidates' *delivered performance* directly: each
//! candidate keeps a running score — an EWMA of the committed throughput
//! measured while it was active — and the policy switches to the
//! best-scoring candidate once it beats the active one by the hysteresis
//! margin. Candidates that have never run are optimistic (unknown beats
//! known), so the policy explores every rung once, in index order, each
//! visit gated by the dwell guard; after that it settles on the winner
//! and only moves again when the measured scores cross.
//!
//! Scores of inactive candidates are *shadow* state: they are not
//! updated while another protocol runs, so a long-stale score can be
//! wrong about the current workload. The dwell guard bounds how often
//! that staleness can cost a switch; refreshing shadows by periodic
//! probing is the natural next step (see ROADMAP).

use crate::estimator::Ewma;
use crate::measure::Measurement;

use super::{check_common, GuardParams, MetaPolicy, SwitchGuard};

/// The shadow-scoring policy.
#[derive(Debug, Clone)]
pub struct ShadowScore {
    scores: Vec<Ewma>,
    guard: SwitchGuard,
}

impl ShadowScore {
    /// The first argument [`ShadowScore::new`] cannot run with, as
    /// `<argument> must …`.
    pub fn check(candidates: usize, ewma_weight: f64, guard: &GuardParams) -> Result<(), String> {
        check_common(candidates, ewma_weight, guard)
    }

    /// Creates the policy over `candidates` protocols with smoothing
    /// weight `ewma_weight ∈ (0, 1]` on each interval's throughput.
    /// Panics exactly when [`ShadowScore::check`] errs.
    pub fn new(candidates: usize, ewma_weight: f64, guard: GuardParams) -> Self {
        Self::check(candidates, ewma_weight, &guard).expect("invalid shadow-score arguments");
        ShadowScore {
            scores: (0..candidates).map(|_| Ewma::new(ewma_weight)).collect(),
            guard: SwitchGuard::new(guard),
        }
    }
}

impl MetaPolicy for ShadowScore {
    fn candidate_count(&self) -> usize {
        self.scores.len()
    }

    fn decide(&mut self, active: usize, m: &Measurement) -> Option<usize> {
        debug_assert!(active < self.scores.len());
        if self.guard.settling(m.at_ms) {
            return None;
        }
        let mine = self.scores[active].update(m.throughput_per_sec());
        if !self.guard.may_switch(m.at_ms) {
            return None;
        }
        // Pick the challenger: the first untried candidate in index
        // order (optimism under uncertainty), else the best shadow
        // score. Ties keep the lowest index — fully deterministic.
        let challenger = match (0..self.scores.len()).find(|&i| self.scores[i].value().is_none())
        {
            Some(untried) => untried,
            None => {
                let mut best = 0usize;
                for i in 1..self.scores.len() {
                    let v = self.scores[i].value().expect("all tried");
                    if v > self.scores[best].value().expect("all tried") {
                        best = i;
                    }
                }
                best
            }
        };
        if challenger == active {
            return None;
        }
        let margin = 1.0 + self.guard.params().hysteresis;
        let wins = match self.scores[challenger].value() {
            None => true, // untried: optimistic
            Some(theirs) => theirs > mine * margin,
        };
        if !wins {
            return None;
        }
        self.guard.note_switch(m.at_ms);
        Some(challenger)
    }

    fn note_swap_complete(&mut self, completed_at_ms: f64) {
        self.guard.note_swap_complete(completed_at_ms);
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

    /// The current score estimate of each candidate (`None` = untried).
    fn scores(p: &ShadowScore) -> Vec<Option<f64>> {
        p.scores.iter().map(Ewma::value).collect()
    }

    /// A one-second interval committing `throughput` (a whole number).
    fn obs_tp(at_ms: f64, throughput: f64) -> Measurement {
        Measurement {
            departures: throughput as u64,
            ..obs_at(at_ms, 0.5)
        }
    }

    #[test]
    fn explores_untried_candidates_in_index_order() {
        let mut p = ShadowScore::new(3, 1.0, guard(0.0, 0.0, 0.1));
        assert_eq!(p.decide(0, &obs_tp(1_000.0, 100.0)), Some(1));
        assert_eq!(p.decide(1, &obs_tp(2_000.0, 50.0)), Some(2));
        // All tried now: candidate 0 scored best, so return to it.
        assert_eq!(p.decide(2, &obs_tp(3_000.0, 10.0)), Some(0));
        assert_eq!(scores(&p), vec![Some(100.0), Some(50.0), Some(10.0)]);
    }

    #[test]
    fn settles_on_the_winner_until_scores_cross() {
        let mut p = ShadowScore::new(2, 1.0, guard(0.0, 0.0, 0.2));
        assert_eq!(p.decide(0, &obs_tp(1_000.0, 100.0)), Some(1));
        // Candidate 1 underperforms: its fresh score loses to 0's shadow.
        assert_eq!(p.decide(1, &obs_tp(2_000.0, 60.0)), Some(0));
        // Back on 0, still delivering: stays (1's shadow of 60 cannot
        // beat 100 * 1.2).
        assert_eq!(p.decide(0, &obs_tp(3_000.0, 100.0)), None);
        // 0 collapses far enough that the stale shadow wins the margin.
        assert_eq!(p.decide(0, &obs_tp(4_000.0, 20.0)), Some(1));
    }

    #[test]
    fn hysteresis_margin_blocks_marginal_challengers() {
        let mut p = ShadowScore::new(2, 1.0, guard(0.0, 0.0, 0.5));
        assert_eq!(p.decide(0, &obs_tp(1_000.0, 100.0)), Some(1));
        assert_eq!(p.decide(1, &obs_tp(2_000.0, 120.0)), None,);
        // 100 (shadow of 0) < 120 * 1.5: not worth the swap.
        assert_eq!(p.decide(1, &obs_tp(3_000.0, 120.0)), None);
    }

    #[test]
    fn dwell_gates_exploration() {
        let mut p = ShadowScore::new(3, 1.0, guard(10_000.0, 0.0, 0.1));
        // Untried candidates exist, but the initial dwell holds.
        assert_eq!(p.decide(0, &obs_tp(1_000.0, 100.0)), None);
        assert_eq!(p.decide(0, &obs_tp(9_000.0, 100.0)), None);
        assert_eq!(p.decide(0, &obs_tp(10_000.0, 100.0)), Some(1));
        // Next exploration waits out the dwell again.
        assert_eq!(p.decide(1, &obs_tp(11_000.0, 100.0)), None);
        assert_eq!(p.decide(1, &obs_tp(20_000.0, 100.0)), Some(2));
    }

    #[test]
    fn cooldown_discards_post_switch_intervals() {
        let mut p = ShadowScore::new(2, 1.0, guard(0.0, 2_000.0, 0.0));
        // Inside the initial cooldown: nothing is scored.
        assert_eq!(p.decide(0, &obs_tp(1_000.0, 5.0)), None);
        assert_eq!(scores(&p), vec![None, None]);
        // Past it, the first scored interval triggers exploration.
        assert_eq!(p.decide(0, &obs_tp(2_500.0, 100.0)), Some(1));
        // The drain dip right after the swap is discarded, not scored.
        assert_eq!(p.decide(1, &obs_tp(3_000.0, 1.0)), None);
        assert_eq!(scores(&p)[1], None);
    }

    #[test]
    fn deterministic_across_instances() {
        let mk = || ShadowScore::new(3, 0.5, guard(3_000.0, 1_000.0, 0.2));
        let (mut a, mut b) = (mk(), mk());
        let (mut ia, mut ib) = (0usize, 0usize);
        for i in 1u64..200 {
            let t = 1_000.0 * i as f64;
            let tp = ((i * 40_503) % 131) as f64;
            let da = a.decide(ia, &obs_tp(t, tp));
            assert_eq!(da, b.decide(ib, &obs_tp(t, tp)), "step {i}");
            if let Some(n) = da {
                ia = n;
                ib = n;
            }
        }
    }
}
