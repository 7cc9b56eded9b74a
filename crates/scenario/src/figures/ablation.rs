//! Ablation experiments for the design choices the paper leaves open.
//!
//! Seven ablations (`abl-dither`, `abl-alpha`, `abl-displacement`,
//! `abl-rules`, `abl-cc`, `abl-victim`, `abl-hybrid`) are fully described
//! by their specs under `scenarios/` and need nothing here. This module
//! holds the ones whose table joins several cells or adds closed-form
//! columns, and the two studies that never were engine runs: the
//! synthetic-surface IS failure and the Monte-Carlo interval-sizing
//! check, with the §5 interval rule that check runs.

use std::collections::VecDeque;
use std::path::Path;

use alc_analytic::surface::{RidgeSurface, Schedule};
use alc_core::controller::{IncrementalSteps, IsParams};

use alc_tpsim::engine::RunStats;

use crate::compile::RunPlan;
use crate::report::Report;
use crate::runner::{build_report, RunRecord};
use crate::table::num;

use super::{axis_labels, pct};
use super::dynamic::drive_surface;

/// Restart-policy ablation: resampled vs identical access sets (one
/// variant each; the default table is the figure's).
pub fn abl_restart(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let mut r = build_report(plan, records);
    let (fresh, retry) = (records[0].stats.throughput_per_sec, records[1].stats.throughput_per_sec);
    let gap = pct((fresh - retry).abs(), fresh.max(retry));
    r.claim(gap < 5.0, format!("with uniform access and no hot spots the difference is modest (conflicts are not item-bound): resampled and identical restarts differ by {}% in throughput (band: < 5 %)", num(gap)));
    r
}

/// The §5.1 IS failure mode: a growing optimum height in place lures IS
/// away; static bounds rescue it.
pub fn abl_is_failure(quick: bool, _out: Option<&Path>) -> Report {
    let steps: usize = if quick { 100 } else { 500 };
    let surface = RidgeSurface {
        position: Schedule::Constant(100.0),
        height: Schedule::Ramp {
            from: 10.0,
            to: 2000.0,
            t_start: 0.0,
            t_end: steps as f64 * 2000.0,
        },
        steepness: 0.15, // nearly flat flanks: every step "improves"
    };
    let mut r = Report::new(
        "abl-is-failure",
        "IS failure under growing optimum height (§5.1) and the static-bound rescue",
        &["max_bound", "final_bound", "tail_mean_bound", "optimum", "worst_excursion"],
    );
    let [loose, tight] = [2_000u32, 400].map(|max_b| {
        // The paper-scale IS tuning (that of `scenarios/fig13.json`) with
        // a gain large enough to follow the ramp.
        let mut is = IncrementalSteps::new(IsParams {
            initial_bound: 100,
            min_bound: 1,
            max_bound: max_b,
            beta: 20.0,
            gamma: 4.0,
            delta: 16.0,
            min_step: 2.0,
            max_step: 48.0,
            smoothing: 1.0,
        });
        let (bounds, _) = drive_surface(&mut is, &surface, steps, 2000.0);
        let series: Vec<f64> = bounds.points().iter().map(|&(_, b)| b).collect();
        let tail = &series[series.len() * 3 / 4..];
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let worst = series.iter().fold(0.0f64, |a, &b| a.max((b - 100.0).abs()));
        r.push_row(vec![
            max_b.to_string(),
            num(series[series.len() - 1]),
            num(tail_mean),
            "100".to_string(),
            num(worst),
        ]);
        worst
    });
    r.claim(loose > 200.0 && tight <= 300.0, format!("with a loose bound IS 'thinks to be on the way to the top, but actually goes astray' (§5.1); the tight static bound the paper mandates caps the excursion: worst excursion {} under max_bound 2000, {} under 400 (band: > 200, twice the optimum, loose; ≤ 300 = 400 − the optimum, tight)", num(loose), num(tight)));
    r
}

/// Hot-spot extension: the paper's model excludes hot spots ("the data
/// items are selected randomly, i.e. no hot spots"). With Zipf-skewed
/// access the effective database shrinks, the optimum moves down and in —
/// and the feedback controllers keep tracking it without re-tuning. The
/// spec sweeps skew × controller (fixed at the analytic optimum, then
/// PA); each row joins the two cells of one skew with the closed-form
/// effective database size and optimum.
pub fn abl_hotspot(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let mut r = Report::new(
        &plan.name,
        &plan.description,
        &[
            "skew_theta",
            "effective_db",
            "analytic_opt",
            "T_at_analytic_opt",
            "T_with_PA",
            "PA_mean_bound",
        ],
    );
    // Per skew: (θ, T at the analytic optimum, T with PA).
    let mut outcomes = Vec::with_capacity(records.len() / 2);
    for (cells, recs) in plan.variants.chunks_exact(2).zip(records.chunks_exact(2)) {
        let fixed = &cells[0].cell;
        let theta = fixed.workload.at(0.0).access_skew;
        let opt = fixed
            .controller
            .build(&fixed.system, &fixed.workload)
            .expect("the first controller of each skew is the fixed analytic optimum")
            .current_bound();
        let (at_opt, with_pa) = (recs[0].stats.throughput_per_sec, recs[1].stats.throughput_per_sec);
        r.push_row(vec![
            num(theta),
            num(alc_analytic::occ::effective_db_size(fixed.system.db_size, theta)),
            opt.to_string(),
            num(at_opt),
            num(with_pa),
            num(recs[1].stats.mean_bound),
        ]);
        outcomes.push((theta, at_opt, with_pa));
    }
    let span = |col: usize| format!("{} to {}", r.rows[0][col], r.rows[r.rows.len() - 1][col]);
    let (db, opt) = (span(1), span(2));
    r.note(format!("skew shrinks the effective database (1/Σp²) from {db} items; under self-limiting certification the analytic optimum's position moves only from {opt}, near the resource knee"));
    let heights: Vec<String> = outcomes.iter().map(|o| num(o.1)).collect();
    r.claim(outcomes.windows(2).all(|w| w[1].1 < w[0].1), format!("skew collapses the achievable peak: the throughput at the analytic optimum falls {} tx/s (band: lower at every step of skew)", heights.join(" → ")));
    let (worst_theta, worst) = outcomes
        .iter()
        .map(|&(theta, at_opt, pa)| (theta, pct((pa - at_opt).abs(), at_opt)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one skew");
    r.note(format!("expected: PA lands within ~2% of the per-skew optimal throughput without any knowledge of the skew, the model-independence argument extended past the paper's uniform-access assumption; measured: within {}% at worst (θ = {})", num(worst), num(worst_theta)));
    r
}

/// Open-arrival extension: the paper's model is closed (terminals with
/// think time bound the load by construction); real admission control
/// faces an *open* stream whose offered rate answers to nobody. The spec
/// sweeps the offered load across the capacity × controller (none, then
/// PA); each row joins the two cells of one rate.
pub fn abl_open(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let mut r = Report::new(
        &plan.name,
        &plan.description,
        &[
            "offered_per_s",
            "T_uncontrolled",
            "T_with_PA",
            "resp_uncontrolled_ms",
            "resp_PA_ms",
            "lost_uncontrolled",
            "lost_PA",
        ],
    );
    let pairs: Vec<_> = records.chunks_exact(2).map(|c| (&c[0].stats, &c[1].stats)).collect();
    let rates = axis_labels(plan, 0);
    for (rate, &(uncontrolled, with_pa)) in rates.iter().zip(&pairs) {
        r.push_row(vec![
            rate.clone(),
            num(uncontrolled.throughput_per_sec),
            num(with_pa.throughput_per_sec),
            num(uncontrolled.mean_response_ms),
            num(with_pa.mean_response_ms),
            uncontrolled.lost.to_string(),
            with_pa.lost.to_string(),
        ]);
    }
    let ((unc, pa), lowest) = (pairs[0], &rates[0]);
    let gap = pct((pa.throughput_per_sec - unc.throughput_per_sec).abs(), unc.throughput_per_sec);
    r.claim(gap < 5.0, format!("below capacity the gate is invisible: at {lowest}/s PA's goodput is {}% from the uncontrolled one (band: < 5 %)", num(gap)));
    r.note(format!("expected below capacity: the same response with and without the gate; measured at {lowest}/s: {} ms without control, {} ms with PA", num(unc.mean_response_ms), num(pa.mean_response_ms)));
    // The share of its own peak goodput a side keeps at the highest rate.
    let kept = |side: fn(&(&RunStats, &RunStats)) -> f64| {
        let goodput: Vec<f64> = pairs.iter().map(side).collect();
        pct(goodput[goodput.len() - 1], goodput.iter().copied().fold(f64::MIN, f64::max))
    };
    let (unc_kept, pa_kept) = (kept(|p| p.0.throughput_per_sec), kept(|p| p.1.throughput_per_sec));
    r.claim(unc_kept < 100.0 && pa_kept >= 95.0, format!("past capacity the uncontrolled system converts concurrency into aborted work and collapses to {}% of its peak goodput at the highest rate, while PA keeps {}% of its own, shedding the excess as queueing + loss (band: < 100 % uncontrolled, ≥ 95 % with PA)", num(unc_kept), num(pa_kept)));
    r
}

/// §5 measurement-interval sizing validated by Monte Carlo: size the
/// interval from the measured departure process, then check the CI
/// actually covers the true throughput at the promised rate.
pub fn abl_interval(quick: bool, _out: Option<&Path>) -> Report {
    use alc_des::dist::{Dist, Erlang, HyperExp, Sample as _};
    use alc_des::rng::RngStream;

    let events: usize = if quick { 40_000 } else { 400_000 };
    // (name, interdeparture distribution with mean 5 ms, analytic c²)
    let processes: [(&str, Dist, f64); 3] = [
        (
            "erlang-4 (smooth)",
            Dist::Erlang(Erlang {
                stages: 4,
                mean: 5.0,
            }),
            0.25,
        ),
        ("poisson", Dist::exponential(5.0), 1.0),
        (
            "hyperexp (bursty)",
            Dist::HyperExp(HyperExp {
                p: 0.9,
                mean_a: 2.0,
                mean_b: 32.0,
            }),
            7.48,
        ),
    ];

    let mut r = Report::new(
        "abl-interval",
        "§5 interval sizing: required departures per process vs achieved CI coverage",
        &[
            "departure_process",
            "scv_true",
            "scv_measured",
            "required_departures",
            "final_interval_ms",
            "coverage_pct",
        ],
    );
    let (mut required, mut coverages, mut bursty_scv) = (Vec::new(), Vec::new(), f64::NAN);
    for (name, dist, scv_true) in processes {
        // alc-lint: allow(seed-literal, reason="fixed figure-fixture seed, xored per process for distinct streams")
        let mut rng = RngStream::from_seed(0xAB9 ^ scv_true.to_bits());
        let mut rule = IntervalRule::new();
        let true_rate = 0.2; // mean 5 ms
        let mut t = 0.0f64;
        let mut interval_end = rule.current_ms;
        let mut interval_start = 0.0f64;
        let mut count = 0u64;
        let mut estimates: Vec<f64> = Vec::new();
        for _ in 0..events {
            t += dist.sample(&mut rng);
            while t >= interval_end {
                let len = interval_end - interval_start;
                estimates.push(count as f64 / len);
                let next = rule.observe(count, len);
                interval_start = interval_end;
                interval_end += next;
                count = 0;
            }
            count += 1;
        }
        // Coverage over the second half (after the interval size settled).
        let tail = &estimates[estimates.len() / 2..];
        let covered = tail
            .iter()
            .filter(|&&x| (x - true_rate).abs() <= ACCURACY * true_rate)
            .count();
        let coverage = 100.0 * covered as f64 / tail.len().max(1) as f64;
        let departures = required_departures(scv_true, ACCURACY);
        r.push_row(vec![
            name.to_string(),
            num(scv_true),
            num(rule.scv()),
            num(departures),
            num(rule.current_ms),
            num(coverage),
        ]);
        required.push(departures);
        coverages.push(coverage);
        bursty_scv = rule.scv();
    }
    let span = required[2] / required[0];
    r.claim((span / 30.0 - 1.0).abs() <= 0.1, format!("the required interval spans a {}× range in departures across processes with the *same* mean rate (band: ~30×, within 10 %) — the second moments, not the rate, set the §5 interval length ('this interval length clearly depends on the parameters of the departure process, especially its second moments')", num(span)));
    r.claim(coverages[..2].iter().all(|c| (c - 95.0).abs() <= 3.0), format!("achieved coverage lands within a few points of the promised 95%: {}% smooth, {}% Poisson (band: 95 ± 3) — the formula is the right first-order guide", num(coverages[0]), num(coverages[1])));
    r.note(format!("expected: the bursty process under-covers (the renewal CLT is only asymptotic and the sizing is estimated online); measured: {}% — it over-covers, its c² estimated at {} against the true 7.48 lengthens its interval", num(coverages[2]), num(bursty_scv)));
    r
}

// The §5 interval rule, private to `abl_interval`: no engine run or
// runtime tick sizes its interval this way; both sample on a fixed period.

/// Two-sided standard-normal quantile at 95 % confidence.
const Z95: f64 = 1.960;
/// Target relative half-width of the throughput estimate (±10 %).
const ACCURACY: f64 = 0.1;
/// Closed intervals the departure-process estimate remembers.
const HISTORY: usize = 256;
/// The interval rule's floor (responsiveness), ms.
const MIN_MS: f64 = 50.0;
/// The interval rule's cap (staleness), ms.
const MAX_MS: f64 = 1e7;
/// The interval rule's starting interval, ms.
const INITIAL_MS: f64 = 1000.0;

/// Departures one interval must contain so the throughput estimate has
/// relative half-width ≤ `accuracy` at 95 % confidence, for a departure
/// process with squared coefficient of variation `scv`.
///
/// "Taking the departures as a stochastic process and assuming
/// stationarity, it is possible to calculate the necessary duration of
/// measurements to estimate the throughput with a given accuracy and for
/// a given confidence level [Heiss, 1988]. This interval length clearly
/// depends on the parameters of the departure process, especially its
/// second moments." (§5)
///
/// For a stationary departure process with rate `λ` and squared
/// coefficient of variation `c²` of the interdeparture times, the count
/// over a window `T` is asymptotically normal with `Var N(T) ≈ c²·λ·T`
/// (renewal central limit theorem). The throughput estimate `X̂ = N(T)/T`
/// then has relative confidence half-width `z·√(c²/(λT))`, so holding it
/// below `ε` requires
///
/// ```text
/// λT ≥ z²·c²/ε²      (departures per interval)
/// T  ≥ z²·c²/(ε²·λ)  (interval length)
/// ```
///
/// For a Poisson-like departure stream (`c² = 1`) at 95% confidence and
/// ±10% accuracy this gives `λT ≥ (1.96/0.1)² ≈ 384` — the paper's
/// "rather hundreds of departures than some tens" made precise.
fn required_departures(scv: f64, accuracy: f64) -> f64 {
    (Z95 / accuracy).powi(2) * scv
}

/// Interval length (ms) implied by [`required_departures`] at ±10 % and
/// departure rate `rate_per_ms`; infinite at rate zero for any `scv > 0`.
fn required_duration_ms(rate_per_ms: f64, scv: f64) -> f64 {
    required_departures(scv, ACCURACY) / rate_per_ms
}

/// Sizes each next interval from the departure process measured over the
/// last [`HISTORY`] closed intervals: the length at which the throughput
/// estimate's relative half-width drops to ±10 %, rate-limited (×½/×2 per
/// step) and clamped into `[MIN_MS, MAX_MS]`.
///
/// The process is estimated from per-interval `(count, length)` pairs
/// alone, the data a harvesting sampler has. For a stationary process,
/// `E N(T) = λT` and `Var N(T) ≈ c²λT`, so the per-interval standardized
/// residuals `(N − λ̂T)² / (λ̂T)` average to `c²` (a χ²-style
/// index-of-dispersion estimate). Intervals of unequal length are handled
/// by that normalization.
#[derive(Debug)]
struct IntervalRule {
    /// The interval to use next.
    current_ms: f64,
    total_count: f64,
    total_ms: f64,
    /// The retained intervals, `(count, length)`.
    history: VecDeque<(f64, f64)>,
}

impl IntervalRule {
    fn new() -> Self {
        IntervalRule {
            current_ms: INITIAL_MS,
            total_count: 0.0,
            total_ms: 0.0,
            history: VecDeque::with_capacity(HISTORY),
        }
    }

    /// Absorbs one closed interval and returns the interval to use next.
    fn observe(&mut self, departures: u64, interval_ms: f64) -> f64 {
        if interval_ms > 0.0 {
            if self.history.len() == HISTORY {
                if let Some((c, t)) = self.history.pop_front() {
                    self.total_count -= c;
                    self.total_ms -= t;
                }
            }
            let c = departures as f64;
            self.history.push_back((c, interval_ms));
            self.total_count += c;
            self.total_ms += interval_ms;
        }
        let required = required_duration_ms(self.rate_per_ms(), self.scv());
        let ideal = if required.is_finite() {
            // Deterministic streams (c² = 0) imply "any interval works";
            // keep the floor instead of collapsing to zero.
            required.max(MIN_MS)
        } else {
            self.current_ms * 2.0 // starved: no departures yet
        };
        let step_limited = ideal.clamp(self.current_ms * 0.5, self.current_ms * 2.0);
        self.current_ms = step_limited.clamp(MIN_MS, MAX_MS);
        self.current_ms
    }

    /// Departure rate (per ms) over the retained intervals.
    fn rate_per_ms(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.total_count / self.total_ms
        }
    }

    /// Index-of-dispersion estimate of `c²`; 1 until enough data arrived.
    fn scv(&self) -> f64 {
        let rate = self.rate_per_ms();
        if self.history.len() < 2 || rate <= 0.0 {
            return 1.0;
        }
        let mut acc = 0.0;
        let mut used = 0usize;
        for &(c, t) in &self.history {
            let expected = rate * t;
            if expected > 0.0 {
                acc += (c - expected) * (c - expected) / expected;
                used += 1;
            }
        }
        if used < 2 {
            1.0
        } else {
            acc / (used - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_des::rng::RngStream;

    #[test]
    fn poisson_needs_hundreds_of_departures() {
        // c² = 1, ±10%, 95% → (1.96/0.1)² ≈ 384: "rather hundreds of
        // departures than some tens".
        let m = required_departures(1.0, ACCURACY);
        assert!((m - 384.16).abs() < 0.1, "{m}");
    }

    #[test]
    fn required_departures_scales_with_scv_and_accuracy() {
        let base = required_departures(1.0, 0.1);
        assert!((required_departures(2.0, 0.1) - 2.0 * base).abs() < 1e-9);
        assert!((required_departures(1.0, 0.05) - 4.0 * base).abs() < 1e-6);
    }

    #[test]
    fn required_duration_inverts_rate() {
        let d = required_duration_ms(0.5, 1.0);
        let m = required_departures(1.0, ACCURACY);
        assert!((d - m / 0.5).abs() < 1e-9);
        assert_eq!(required_duration_ms(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn dispersion_estimator_on_poisson_counts() {
        // Poisson counts over equal intervals: dispersion index ≈ 1.
        let mut rng = RngStream::from_seed(7);
        let mut d = IntervalRule::new();
        for _ in 0..200 {
            // Sample Poisson(100) via exponential gaps in a unit window.
            let mut count = 0u64;
            let mut t = -(1.0 - rng.uniform01()).ln();
            while t < 100.0 {
                count += 1;
                t += -(1.0 - rng.uniform01()).ln();
            }
            d.observe(count, 1000.0); // rate 0.1/ms
        }
        assert!((d.rate_per_ms() - 0.1).abs() < 0.005, "{}", d.rate_per_ms());
        assert!((d.scv() - 1.0).abs() < 0.3, "{}", d.scv());
    }

    #[test]
    fn dispersion_estimator_detects_overdispersion() {
        // Alternating feast/famine counts are overdispersed: c² >> 1.
        let mut d = IntervalRule::new();
        for i in 0..64 {
            let count = if i % 2 == 0 { 200 } else { 0 };
            d.observe(count, 1000.0);
        }
        assert!(d.scv() > 50.0, "{}", d.scv());
        // And the required interval stretches accordingly.
        let poisson = required_duration_ms(0.1, 1.0);
        assert!(required_duration_ms(d.rate_per_ms(), d.scv()) > 20.0 * poisson);
    }

    #[test]
    fn dispersion_estimator_bounds_history() {
        let mut d = IntervalRule::new();
        for _ in 0..1000 {
            d.observe(10, 100.0);
        }
        assert_eq!(d.history.len(), HISTORY);
        assert!((d.rate_per_ms() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn dispersion_estimator_handles_unequal_intervals() {
        // Perfectly proportional counts over unequal windows: c² ≈ 0.
        let mut d = IntervalRule::new();
        for i in 1..=32 {
            let t = 500.0 + f64::from(i % 4) * 250.0;
            d.observe((0.2 * t) as u64, t);
        }
        assert!(d.scv() < 0.05, "{}", d.scv());
    }

    #[test]
    fn ci_interval_converges_to_the_renewal_formula() {
        // Poisson-like counts (c² ≈ 1) at 0.2/ms: the §5 formula says
        // T = (1.96/0.1)²·1 / 0.2 ≈ 1921 ms.
        let mut rule = IntervalRule::new();
        let mut interval = rule.current_ms;
        let mut state = 9u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..200 {
            let lambda_t = 0.2 * interval;
            // Counts with Poisson-like variance via a uniform kick of
            // matching second moment (±√(3λT)).
            let count = (lambda_t + noise() * (12.0f64 * lambda_t).sqrt()).max(0.0) as u64;
            interval = rule.observe(count, interval);
        }
        assert!(
            (1200.0..=3000.0).contains(&interval),
            "converged to {interval}, expected ≈ 1921"
        );
    }

    #[test]
    fn ci_interval_stretches_for_bursty_processes() {
        // Feast/famine counts are overdispersed: the required interval
        // must grow far beyond the Poisson value.
        let mut rule = IntervalRule::new();
        let mut interval = rule.current_ms;
        for i in 0..60 {
            let count = if i % 2 == 0 {
                (0.4 * interval) as u64
            } else {
                0
            };
            interval = rule.observe(count, interval);
        }
        assert!(interval > 10_000.0, "bursty stream got only {interval}");
    }

    #[test]
    fn ci_interval_grows_when_starved_and_respects_caps() {
        // No departures: the interval doubles each step, 1 s → 2¹⁴ s, and
        // stops at the cap.
        let mut rule = IntervalRule::new();
        for _ in 0..20 {
            rule.observe(0, 1000.0);
        }
        assert_eq!(rule.current_ms, MAX_MS);
    }

    #[test]
    fn ci_interval_floors_deterministic_streams() {
        // Identical counts every interval → c² ≈ 0 → required length 0;
        // the rule must hold the floor, not collapse.
        let mut rule = IntervalRule::new();
        let mut interval = rule.current_ms;
        for _ in 0..30 {
            interval = rule.observe((0.2 * interval) as u64, interval);
        }
        assert_eq!(interval, MIN_MS);
    }
}
