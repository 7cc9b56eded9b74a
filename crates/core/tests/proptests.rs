//! Property-based tests of the control core: RLS correctness, controller
//! safety envelopes, and gate invariants under arbitrary operation
//! sequences.

#![allow(clippy::needless_range_loop)] // indexed matrix math in the oracle

use proptest::prelude::*;

use alc_core::controller::{
    Hybrid, HybridParams, IncrementalSteps, IsParams, IyerRule, IyerRuleParams, LoadController,
    OuterParams, PaOuterParams, PaParams, ParabolaApproximation, SelfTuningIs, SelfTuningPa,
};
use alc_core::estimator::Rls;
use alc_core::gate::AdaptiveGate;
use alc_core::measure::{Measurement, PerfIndicator};
use alc_core::telemetry::TelemetryWindow;

/// Weighted batch least squares on `[1, x, x²]` with weights `α^(N−1−i)`.
fn batch_weighted_quadratic(data: &[(f64, f64)], alpha: f64) -> [f64; 3] {
    let n = data.len();
    let mut ata = [[0.0f64; 3]; 3];
    let mut aty = [0.0f64; 3];
    for (i, &(x, y)) in data.iter().enumerate() {
        let w = alpha.powi((n - 1 - i) as i32);
        let phi = [1.0, x, x * x];
        for r in 0..3 {
            for c in 0..3 {
                ata[r][c] += w * phi[r] * phi[c];
            }
            aty[r] += w * phi[r] * y;
        }
    }
    // Gauss-Jordan with partial pivoting.
    let mut m = [[0.0f64; 4]; 3];
    for i in 0..3 {
        m[i][..3].copy_from_slice(&ata[i]);
        m[i][3] = aty[i];
    }
    for col in 0..3 {
        let piv = (col..3)
            .max_by(|&a, &b| m[a][col].abs().partial_cmp(&m[b][col].abs()).unwrap())
            .unwrap();
        m.swap(col, piv);
        for row in 0..3 {
            if row != col && m[col][col].abs() > 1e-30 {
                let f = m[row][col] / m[col][col];
                for c in col..4 {
                    m[row][c] -= f * m[col][c];
                }
            }
        }
    }
    [m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]]
}

proptest! {
    /// RLS with forgetting converges to the weighted batch least-squares
    /// solution (with a diffuse prior, the two differ only through the
    /// vanishing prior term).
    #[test]
    fn rls_matches_weighted_batch_ls(
        coefs in (-5.0f64..5.0, -5.0f64..5.0, -1.0f64..1.0),
        alpha in 0.9f64..1.0,
        noise_seed in any::<u64>(),
    ) {
        let (a0, a1, a2) = coefs;
        let mut state = noise_seed;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let data: Vec<(f64, f64)> = (0..120)
            .map(|i| {
                let x = (i % 24) as f64 / 6.0;
                (x, a0 + a1 * x + a2 * x * x + 0.01 * noise())
            })
            .collect();
        let mut rls = Rls::<3>::new(alpha, 1e10);
        for &(x, y) in &data {
            rls.update(&[1.0, x, x * x], y);
        }
        let batch = batch_weighted_quadratic(&data, alpha);
        for i in 0..3 {
            prop_assert!(
                (rls.theta()[i] - batch[i]).abs() < 1e-2,
                "coef {i}: rls {} vs batch {}",
                rls.theta()[i],
                batch[i]
            );
        }
    }

    /// Both feedback controllers keep the bound inside the configured
    /// static range for ANY measurement sequence (the §5.1 safety
    /// requirement).
    #[test]
    fn controllers_respect_static_bounds(
        perfs in prop::collection::vec(0.0f64..1e6, 1..200),
        mpls in prop::collection::vec(0.0f64..2000.0, 1..200),
        min_bound in 1u32..50,
        span in 1u32..500,
    ) {
        let max_bound = min_bound + span;
        let initial = min_bound + span / 2;
        let mut is = IncrementalSteps::new(IsParams {
            initial_bound: initial,
            min_bound,
            max_bound,
            ..IsParams::default()
        });
        let mut pa = ParabolaApproximation::new(PaParams {
            initial_bound: initial,
            min_bound,
            max_bound,
            ..PaParams::default()
        });
        // Iyer's floor is fixed at 1.
        let mut iyer = IyerRule::new(IyerRuleParams {
            initial_bound: initial,
            max_bound,
            ..IyerRuleParams::default()
        });
        let is_params = IsParams {
            initial_bound: initial,
            min_bound,
            max_bound,
            ..IsParams::default()
        };
        let pa_params = PaParams {
            initial_bound: initial,
            min_bound,
            max_bound,
            ..PaParams::default()
        };
        let mut hybrid = Hybrid::new(HybridParams {
            is: is_params,
            pa: pa_params,
        });
        let mut tuned_is = SelfTuningIs::new(is_params, OuterParams::default());
        let mut tuned_pa = SelfTuningPa::new(pa_params, PaOuterParams::default());
        for (i, (&p, &n)) in perfs.iter().zip(mpls.iter().cycle()).enumerate() {
            let m = Measurement {
                conflicts_per_txn: p / 1e5,
                ..Measurement::basic(i as f64, 1.0, p, n)
            };
            for (ctrl, b, floor) in [
                ("is", is.update(&m), min_bound),
                ("pa", pa.update(&m), min_bound),
                ("iyer", iyer.update(&m), 1),
                ("hybrid", hybrid.update(&m), min_bound),
                ("self-tuning-is", tuned_is.update(&m), min_bound),
                ("self-tuning-pa", tuned_pa.update(&m), min_bound),
            ] {
                prop_assert!(
                    (floor..=max_bound).contains(&b),
                    "{ctrl} bound {b} escaped [{floor}, {max_bound}]"
                );
            }
        }
    }

    /// Gate state-machine invariants under arbitrary single-threaded
    /// operation sequences: in-use never exceeds the limit in force at
    /// admission time, permits all return, and counters balance.
    #[test]
    fn gate_state_machine_invariants(ops in prop::collection::vec(0u8..4, 1..300)) {
        let gate = AdaptiveGate::new(4);
        let mut permits = Vec::new();
        let mut limit = 4u32;
        for op in ops {
            match op {
                0 => {
                    // try_acquire: may fail; success respects the limit.
                    if let Some(p) = gate.try_acquire() {
                        prop_assert!(gate.in_use() <= limit.max(1));
                        permits.push(p);
                    } else {
                        prop_assert!(gate.in_use() >= limit || !permits.is_empty() || limit == 0);
                    }
                }
                1 => {
                    permits.pop(); // release by drop
                }
                2 => {
                    limit = (limit + 3) % 9; // 0..=8
                    gate.set_limit(limit);
                }
                _ => {
                    // timed acquire with zero patience: must not deadlock.
                    if let Some(p) = gate.acquire_timeout(std::time::Duration::ZERO) {
                        permits.push(p);
                    }
                }
            }
            prop_assert_eq!(gate.in_use() as usize, permits.len(), "permit accounting broken");
        }
        let admitted = gate.stats().total_admitted;
        drop(permits);
        prop_assert_eq!(gate.in_use(), 0, "permits leaked");
        prop_assert!(admitted >= 1 || gate.stats().total_admitted == 0);
    }

    /// A window's p50, p95 and p99 are never below the rank quantile of
    /// its response times (the ⌈p·n/100⌉-th smallest) nor above it by more
    /// than 1/16, are ordered, and start from 0.0 in the next window: the
    /// same values fed again read the same.
    #[test]
    fn window_quantiles_bound_the_rank_quantiles(
        exponents in prop::collection::vec(-3.0f64..6.0, 1..5001),
    ) {
        let mut w = TelemetryWindow::new(PerfIndicator::Throughput, 0.0, 0);
        let mut sorted: Vec<f64> = exponents.iter().map(|e| 10f64.powf(*e)).collect();
        for &x in &sorted {
            w.on_commit(x, 0);
        }
        sorted.sort_by(f64::total_cmp);
        let s = w.harvest(1000.0, 0);
        let n = sorted.len();
        for (p, estimate) in [(50, s.p50_ms), (95, s.p95_ms), (99, s.p99_ms)] {
            let exact = sorted[(p * n).div_ceil(100) - 1];
            prop_assert!(
                exact <= estimate && estimate <= exact * (1.0 + 1.0 / 16.0),
                "p{p} of {n}: {estimate} against {exact}"
            );
        }
        prop_assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        let next = w.harvest(2000.0, 0);
        prop_assert_eq!([next.p50_ms, next.p95_ms, next.p99_ms], [0.0; 3]);
        for &x in &sorted {
            w.on_commit(x, 0);
        }
        let again = w.harvest(3000.0, 0);
        prop_assert_eq!([again.p50_ms, again.p95_ms, again.p99_ms], [s.p50_ms, s.p95_ms, s.p99_ms]);
    }

    /// IS converges onto the optimum of an arbitrary clean unimodal curve
    /// whose peak lies inside the bound range.
    #[test]
    fn is_finds_interior_optimum(peak in 40.0f64..160.0, height in 10.0f64..500.0) {
        // β is a gain an operator tunes to the magnitude of P; normalize it
        // so a full-height performance swing maps to a ~50-step move.
        let mut is = IncrementalSteps::new(IsParams {
            initial_bound: 100,
            min_bound: 1,
            max_bound: 200,
            beta: 50.0 / height,
            ..IsParams::default()
        });
        let mut bound = is.current_bound();
        let mut tail = Vec::new();
        for i in 0..400 {
            let n = f64::from(bound);
            let x = n / peak;
            let perf = height * (x * (1.0 - x).exp()).powi(2);
            bound = is.update(&Measurement::basic(f64::from(i), 1.0, perf, n));
            if i >= 300 {
                tail.push(f64::from(bound));
            }
        }
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        prop_assert!(
            (mean - peak).abs() < 0.35 * peak + 10.0,
            "IS settled at {mean}, optimum {peak}"
        );
    }
}

// ---------------------------------------------------------------------
// Meta-policy properties (closed-loop CC selection)
// ---------------------------------------------------------------------

use alc_core::meta::{GuardParams, Ladder, LadderSignal, MetaPolicy, ShadowScore};

/// Replays a sequence of `(conflicts per commit, commits, aborts)`
/// intervals through a policy, returning the decision trace (decision
/// time, target) and asserting legality of every target index.
fn replay(policy: &mut dyn MetaPolicy, obs: &[(f64, u64, u64)]) -> Vec<(f64, usize)> {
    let n = policy.candidate_count();
    let mut active = 0usize;
    let mut trace = Vec::new();
    for (i, &(conflicts, departures, aborts)) in obs.iter().enumerate() {
        let t = 500.0 * (i + 1) as f64;
        let m = Measurement {
            departures,
            aborts,
            conflicts_per_txn: conflicts,
            ..Measurement::basic(t, 500.0, 0.0, 10.0)
        };
        if let Some(next) = policy.decide(active, &m) {
            assert!(next < n, "policy picked candidate {next} of {n}");
            assert_ne!(next, active, "policy re-picked the active candidate");
            trace.push((t, next));
            active = next;
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every meta policy is a pure function of its observation sequence:
    /// two fresh instances replaying the same sequence emit the same
    /// decision trace — the property that makes adaptive runs exactly as
    /// reproducible as scheduled ones.
    #[test]
    fn meta_policies_are_deterministic(
        obs in proptest::collection::vec(
            (0.0f64..6.0, 0u64..100, 0u64..100), 10..120),
        threshold in 0.2f64..4.0,
        weight in 0.1f64..1.0,
        dwell_s in 0.0f64..20.0,
        cooldown_s in 0.0f64..5.0,
        hysteresis in 0.0f64..0.8,
    ) {
        let guard = GuardParams {
            min_dwell_ms: dwell_s * 1000.0,
            cooldown_ms: cooldown_s * 1000.0,
            hysteresis,
        };
        type Make = Box<dyn Fn() -> Box<dyn MetaPolicy>>;
        let policies: Vec<(&str, Make)> = vec![
            ("conflict ladder", Box::new(move || {
                Box::new(Ladder::new(LadderSignal::ConflictsPerTxn, 3, threshold, weight, guard))
            })),
            ("abort ladder", Box::new(move || {
                let threshold = threshold.min(0.95);
                Box::new(Ladder::new(LadderSignal::AbortRatio, 3, threshold, weight, guard))
            })),
            ("shadow score", Box::new(move || Box::new(ShadowScore::new(3, weight, guard)))),
        ];
        for (name, mk) in &policies {
            let ta = replay(mk().as_mut(), &obs);
            let tb = replay(mk().as_mut(), &obs);
            prop_assert_eq!(&ta, &tb, "{} diverged across instances", name);
            // The dwell guard holds on every trace: consecutive decisions
            // (and the first, measured from run start) are at least
            // min_dwell apart.
            if let Some(&(first, _)) = ta.first() {
                prop_assert!(first >= guard.min_dwell_ms);
            }
            for w in ta.windows(2) {
                prop_assert!(
                    w[1].0 - w[0].0 >= guard.min_dwell_ms,
                    "{} violated min_dwell: {} then {}", name, w[0].0, w[1].0
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Parameter checks: each `check()` says `Ok` exactly when its
// constructor runs, so a rule a nested part asserts (the IS smoother's
// weight, the PA estimator's prior) cannot be missing from it.
// ---------------------------------------------------------------------

use std::panic::{catch_unwind, AssertUnwindSafe};

use alc_core::controller::{RetryBudget, RetryBudgetParams, TayRule};

/// Per field: keep the default two times in three, else an arbitrary
/// number with the edge cases (0, negatives, NaN, ±∞) weighted in.
fn overrides(fields: usize) -> impl Strategy<Value = Vec<Option<f64>>> {
    let edge = prop_oneof![
        Just(0.0),
        Just(-1.0),
        Just(1.0),
        Just(2.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -2.0f64..2.0,
        0.0f64..2000.0,
        any::<f64>(),
    ];
    let field = prop_oneof![2 => Just(None), 1 => edge.prop_map(Some)];
    prop::collection::vec(field, fields..fields + 1)
}

/// Field `i` of `f` as a number, or `default`.
fn real(f: &[Option<f64>], i: usize, default: f64) -> f64 {
    f[i].unwrap_or(default)
}

/// Field `i` of `f` as a count (saturating, NaN to 0), or `default`.
fn count(f: &[Option<f64>], i: usize, default: u32) -> u32 {
    f[i].map_or(default, |x| x as u32)
}

fn is_params(f: &[Option<f64>]) -> IsParams {
    let d = IsParams::default();
    IsParams {
        initial_bound: count(f, 0, d.initial_bound),
        min_bound: count(f, 1, d.min_bound),
        max_bound: count(f, 2, d.max_bound),
        beta: real(f, 3, d.beta),
        gamma: real(f, 4, d.gamma),
        delta: real(f, 5, d.delta),
        min_step: real(f, 6, d.min_step),
        max_step: real(f, 7, d.max_step),
        smoothing: real(f, 8, d.smoothing),
    }
}

fn pa_params(f: &[Option<f64>]) -> PaParams {
    let d = PaParams::default();
    PaParams {
        initial_bound: count(f, 0, d.initial_bound),
        min_bound: count(f, 1, d.min_bound),
        max_bound: count(f, 2, d.max_bound),
        alpha: real(f, 3, d.alpha),
        warmup_samples: u64::from(count(f, 4, 8)),
        warmup_step: real(f, 5, d.warmup_step),
        dither_amplitude: real(f, 6, d.dither_amplitude),
        max_step: real(f, 7, d.max_step),
        reset_after_convex: count(f, 8, d.reset_after_convex),
        ..d
    }
}

/// The positional arguments of a meta policy: candidate count (capped,
/// as a policy allocates per candidate and no rule bounds it above),
/// EWMA weight, guard, and (for the ladders) the threshold.
fn meta_args(f: &[Option<f64>]) -> (usize, f64, GuardParams, f64) {
    let guard = GuardParams {
        min_dwell_ms: real(f, 2, 0.0),
        cooldown_ms: real(f, 3, 0.0),
        hysteresis: real(f, 4, 0.25),
    };
    let candidates = count(f, 0, 3).min(16) as usize;
    (candidates, real(f, 1, 0.3), guard, real(f, 5, 0.5))
}

/// `check` is `Ok` exactly when `build` runs without a panic.
fn agrees<T>(what: &dyn std::fmt::Debug, check: Result<(), String>, build: impl FnOnce() -> T) {
    let built = catch_unwind(AssertUnwindSafe(build)).is_ok();
    assert_eq!(check.is_ok(), built, "{what:?}: check says {check:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn is_check_agrees_with_its_constructor(f in overrides(9)) {
        let p = is_params(&f);
        agrees(&p, p.check(), || IncrementalSteps::new(p));
    }

    #[test]
    fn pa_check_agrees_with_its_constructor(f in overrides(9)) {
        let p = pa_params(&f);
        agrees(&p, p.check(), || ParabolaApproximation::new(p));
    }

    #[test]
    fn outer_check_agrees_with_its_constructor(f in overrides(1)) {
        let p = OuterParams {
            window: count(&f, 0, OuterParams::default().window),
        };
        agrees(&p, p.check(), || SelfTuningIs::new(IsParams::default(), p));
    }

    #[test]
    fn pa_outer_check_agrees_with_its_constructor(f in overrides(1)) {
        let p = PaOuterParams {
            window: count(&f, 0, PaOuterParams::default().window),
        };
        agrees(&p, p.check(), || SelfTuningPa::new(PaParams::default(), p));
    }

    #[test]
    fn hybrid_check_agrees_with_its_constructor(
        is in overrides(9),
        pa in overrides(9),
    ) {
        let p = HybridParams {
            is: is_params(&is),
            pa: pa_params(&pa),
        };
        agrees(&p, p.check(), || Hybrid::new(p));
    }

    #[test]
    fn retry_budget_check_agrees_with_its_constructor(f in overrides(5)) {
        let d = RetryBudgetParams::default();
        let p = RetryBudgetParams {
            initial_bound: count(&f, 0, d.initial_bound),
            min_bound: count(&f, 1, d.min_bound),
            max_bound: count(&f, 2, d.max_bound),
            budget: real(&f, 3, d.budget),
            burst: real(&f, 4, d.burst),
        };
        agrees(&p, p.check(), || RetryBudget::new(p));
    }

    #[test]
    fn iyer_check_agrees_with_its_constructor(f in overrides(3)) {
        let d = IyerRuleParams::default();
        let p = IyerRuleParams {
            target: real(&f, 0, d.target),
            initial_bound: count(&f, 1, d.initial_bound),
            max_bound: count(&f, 2, d.max_bound),
        };
        agrees(&p, p.check(), || IyerRule::new(p));
    }

    #[test]
    fn conflict_threshold_check_agrees_with_its_constructor(f in overrides(6)) {
        let (n, w, guard, threshold) = meta_args(&f);
        agrees(
            &(n, threshold, w, guard),
            Ladder::check(LadderSignal::ConflictsPerTxn, n, threshold, w, &guard),
            || Ladder::new(LadderSignal::ConflictsPerTxn, n, threshold, w, guard),
        );
    }

    #[test]
    fn restart_rate_check_agrees_with_its_constructor(f in overrides(6)) {
        let (n, w, guard, threshold) = meta_args(&f);
        agrees(
            &(n, threshold, w, guard),
            Ladder::check(LadderSignal::AbortRatio, n, threshold, w, &guard),
            || Ladder::new(LadderSignal::AbortRatio, n, threshold, w, guard),
        );
    }

    #[test]
    fn shadow_score_check_agrees_with_its_constructor(f in overrides(6)) {
        let (n, w, guard, _) = meta_args(&f);
        agrees(&(n, w, guard), ShadowScore::check(n, w, &guard), || ShadowScore::new(n, w, guard));
    }

    #[test]
    fn tay_check_agrees_with_its_constructor(f in overrides(4)) {
        let (k, db) = (count(&f, 0, 8), u64::from(count(&f, 1, 2000)));
        let (lo, hi) = (count(&f, 2, 1), count(&f, 3, 1000));
        agrees(&(k, db, lo, hi), TayRule::check(k, db, lo, hi), || TayRule::new(k, db, lo, hi));
    }
}
