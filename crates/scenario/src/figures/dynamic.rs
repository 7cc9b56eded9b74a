//! Dynamic experiments: trajectories under stationary (Fig. 3), jump
//! (Figs. 13/14), sinusoidal (§9) and pathological (Figs. 7/8) workloads.

use std::path::Path;

use alc_analytic::surface::{FlatHumpSurface, RidgeSurface, Schedule, Surface};
use alc_core::controller::{FallbackPolicy, LoadController, PaParams, ParabolaApproximation};
use alc_core::measure::Measurement;
use alc_des::series::{write_aligned_csv, TimeSeries};
use alc_des::SimTime;
use alc_tpsim::engine::Trajectories;

use crate::compile::RunPlan;
use crate::plot;
use crate::report::Report;
use crate::runner::RunRecord;
use crate::table::num;

use super::{paper_pa, pct};

/// The trajectories a figure's spec records (`"trajectories": true`).
fn trajectories(rec: &RunRecord) -> &Trajectories {
    rec.trajectories.as_ref().expect("the figure's spec records trajectories")
}

/// The figures' "bound against optimum over time" chart.
fn bound_chart(bound: &TimeSeries, optimum: &TimeSeries, height: usize) -> String {
    plot::chart(&[("bound n*(t)", bound), ("optimum", optimum)], 96, height)
}

/// Tracking summary against the analytic optimum line over a tail
/// window: mean |bound − optimum|, mean bound, mean optimum (NaN, printed
/// `-`, when the window holds no optimum sample).
fn tail_tracking(traj: &Trajectories, from_frac: f64) -> (f64, f64, f64) {
    let pts = traj.bound.points();
    let start = ((pts.len() as f64) * from_frac) as usize;
    let (mut err, mut bound_sum, mut opt_sum, mut n) = (0.0, 0.0, 0.0, 0.0);
    for &(t, b) in &pts[start..] {
        let opt = traj.optimum.value_at(SimTime::new(t)).unwrap_or(f64::NAN);
        if opt.is_finite() {
            err += (b - opt).abs();
            bound_sum += b;
            opt_sum += opt;
            n += 1.0;
        }
    }
    (err / n, bound_sum / n, opt_sum / n)
}

/// How often a bound series reverses direction: `(reversals, steps)`.
fn direction_changes(pts: &[(f64, f64)]) -> (usize, usize) {
    let dirs: Vec<i8> = pts
        .windows(2)
        .map(|w| (w[1].1 - w[0].1).signum() as i8)
        .filter(|&d| d != 0)
        .collect();
    let flips = dirs.windows(2).filter(|d| d[0] != d[1]).count();
    (flips, pts.len().saturating_sub(1))
}

/// The claim that a bound series hunts: it reverses direction on at
/// least a quarter of its steps.
fn hunts(r: &mut Report, what: &str, pts: &[(f64, f64)]) {
    let (flips, steps) = direction_changes(pts);
    let share = pct(flips as f64, steps as f64);
    r.claim(share >= 25.0, format!("{what}: the bound reverses direction on {flips} of {steps} steps, {}% (band: ≥ 25 %)", num(share)));
}

/// Figure 3: the Incremental Steps zig-zag around a stationary optimum.
pub fn fig03(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let (stats, traj) = (&records[0].stats, trajectories(&records[0]));

    // Zig-zag: count direction changes over the second half.
    let pts = traj.bound.points();
    let half = &pts[pts.len() / 2..];
    let (flips, _) = direction_changes(half);
    let (err, bound_mean, opt_mean) = tail_tracking(traj, 0.5);

    let mut r = Report::new(&plan.name, &plan.description, &["metric", "value"]);
    r.push_row(vec!["samples".into(), pts.len().to_string()]);
    r.push_row(vec!["direction_changes_2nd_half".into(), flips.to_string()]);
    r.push_row(vec!["tail_mean_bound".into(), num(bound_mean)]);
    r.push_row(vec!["analytic_optimum".into(), num(opt_mean)]);
    r.push_row(vec!["tail_mean_abs_error".into(), num(err)]);
    r.push_row(vec!["throughput_per_s".into(), num(stats.throughput_per_sec)]);
    r.chart(bound_chart(&traj.bound, &traj.optimum, 16));
    hunts(&mut r, "zig-zag over the second half (paper Fig. 3: each worsening measurement flips the direction)", half);
    let above = half
        .iter()
        .filter(|&&(t, b)| traj.optimum.value_at(SimTime::new(t)).is_some_and(|o| b > o))
        .count();
    r.claim(above > 0 && above < half.len(), format!("the bound oscillates around the optimum: {above} of the second half's {} samples lie above it, the rest at or below (band: both sides visited)", half.len()));
    r
}

/// Drives a controller against a synthetic surface (no simulator noise),
/// returning (bound series, optimum series).
pub(super) fn drive_surface(
    ctrl: &mut dyn LoadController,
    surface: &dyn Surface,
    steps: usize,
    interval_ms: f64,
) -> (TimeSeries, TimeSeries) {
    let mut bound_series = TimeSeries::new("bound");
    let mut opt_series = TimeSeries::new("optimum");
    let mut bound = ctrl.current_bound();
    for i in 0..steps {
        let t = i as f64 * interval_ms;
        let n = f64::from(bound);
        let perf = surface.performance(n, t);
        bound = ctrl.update(&Measurement::basic(t + interval_ms, interval_ms, perf, n));
        bound_series.push(SimTime::new(t), f64::from(bound));
        opt_series.push(SimTime::new(t), surface.optimum(t));
    }
    (bound_series, opt_series)
}

/// Writes a closed-form study's series as `<dir>/<name>` (time-aligned
/// columns), when a directory is given.
fn write_series(dir: Option<&Path>, name: &str, series: &[&TimeSeries]) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("results dir");
        let f = std::fs::File::create(dir.join(name)).expect("trajectory csv");
        write_aligned_csv(std::io::BufWriter::new(f), series).expect("csv");
    }
}

/// Figure 7: the flat-hump pathology — fits open upward; the fallback
/// policy decides whether the controller survives. Compares the §5.2
/// countermeasures.
pub fn fig07(quick: bool, out_dir: Option<&Path>) -> Report {
    let surface = FlatHumpSurface {
        center: Schedule::Constant(200.0),
        height: Schedule::Constant(120.0),
        width: 120.0,
    };
    let steps: usize = if quick { 80 } else { 400 };
    let policies = [
        ("hold-last", FallbackPolicy::HoldLast),
        ("gradient-probe", FallbackPolicy::GradientProbe { step: 8.0 }),
        ("clamp-to-safe", FallbackPolicy::ClampToSafe { bound: 150 }),
    ];

    let mut r = Report::new(
        "fig07",
        "Flat-hump pathology (upward-opening parabola) and §5.2 fallback policies",
        &[
            "fallback",
            "convex_fit_%",
            "cov_resets",
            "tail_mean_bound",
            "tail_perf_%_of_peak",
        ],
    );
    // (convex-fit %, tail performance % of peak) per policy, in order.
    let outcomes = policies.map(|(name, policy)| {
        let mut pa = ParabolaApproximation::new(PaParams {
            initial_bound: 40,
            max_bound: 500,
            fallback: policy,
            ..paper_pa()
        });
        let (bounds, _) = drive_surface(&mut pa, &surface, steps, 2000.0);
        let d = pa.diagnostics();
        if name == "gradient-probe" {
            write_series(out_dir, "fig07_trajectory.csv", &[&bounds]);
        }
        let total = d.convex_fits + d.vertex_updates;
        let convex = pct(d.convex_fits as f64, total.max(1) as f64);
        let tail = bounds.tail_mean(0.25);
        let perf_pct = 100.0 * surface.performance(tail, 0.0) / 120.0;
        r.push_row(vec![
            name.to_string(),
            num(convex),
            d.covariance_resets.to_string(),
            num(tail),
            num(perf_pct),
        ]);
        (convex, perf_pct)
    });
    let [(hold_convex, hold), (probe_convex, probe), (_, clamp)] = outcomes;
    r.claim(hold_convex >= 90.0 && probe_convex >= 90.0, format!("a broad flat hump yields upward-opening fits essentially permanently (paper Fig. 7): {}% / {}% of the fits under hold-last / gradient-probe (band: ≥ 90 %)", num(hold_convex), num(probe_convex)));
    r.claim(probe >= 95.0 && clamp >= 95.0 && hold < 95.0, format!("gradient-probe and clamp-to-safe finish on the plateau top, at {}% / {}% of peak, while hold-last freezes where the pathology began, at {}% (band: ≥ 95 % for the first two, below for hold-last) — why GradientProbe is the default fallback", num(probe), num(clamp), num(hold)));
    r
}

/// Figure 8: abrupt shape change — the bound suddenly sits deep in the
/// (convex) thrashing region; covariance reset + probing must recover.
pub fn fig08(quick: bool, out_dir: Option<&Path>) -> Report {
    let steps: usize = if quick { 120 } else { 600 };
    let interval = 2000.0;
    let change_at = steps as f64 / 2.0 * interval;
    let surface = RidgeSurface {
        position: Schedule::Jump {
            at: change_at,
            before: 400.0,
            after: 80.0,
        },
        height: Schedule::Jump {
            at: change_at,
            before: 130.0,
            after: 60.0,
        },
        steepness: 3.0,
    };

    let mut r = Report::new(
        "fig08",
        "Abrupt shape change (old bound deep in the convex thrashing region)",
        &[
            "reset_after_convex",
            "recovery_intervals",
            "post_tail_bound",
            "new_optimum",
            "cov_resets",
        ],
    );
    // Per setting: "label: recovery intervals", tail mean bound.
    let (mut recoveries, mut tails) = (Vec::new(), Vec::new());
    for reset_after in [0u32, 3, 6] {
        let mut pa = ParabolaApproximation::new(PaParams {
            initial_bound: 50,
            max_bound: 600,
            reset_after_convex: reset_after,
            alpha: 0.9,
            ..paper_pa()
        });
        let (bounds, opts) = drive_surface(&mut pa, &surface, steps, interval);
        if reset_after == 6 {
            write_series(out_dir, "fig08_trajectory.csv", &[&bounds, &opts]);
            r.chart(bound_chart(&bounds, &opts, 12));
        }
        // Recovery: first post-change interval from which the bound stays
        // within 25% of the new optimum for 10 consecutive samples.
        let pts = bounds.points();
        let change_idx = steps / 2;
        let mut recovery = None;
        let mut streak = 0;
        for (i, &(_, b)) in pts.iter().enumerate().skip(change_idx) {
            if (b - 80.0).abs() <= 20.0 {
                streak += 1;
                if streak >= 10 {
                    recovery = Some(i - 9 - change_idx);
                    break;
                }
            } else {
                streak = 0;
            }
        }
        let d = pa.diagnostics();
        let tail = bounds.tail_mean(0.2);
        let row = vec![
            if reset_after == 0 {
                "off".to_string()
            } else {
                reset_after.to_string()
            },
            recovery.map_or("never".to_string(), |x| x.to_string()),
            num(tail),
            "80".to_string(),
            d.covariance_resets.to_string(),
        ];
        recoveries.push(format!("{}: {}", row[0], row[1]));
        tails.push(tail);
        r.push_row(row);
    }
    let miss = |tail: &f64| (tail - 80.0).abs();
    r.claim(tails[1..].iter().all(|t| miss(t) < miss(&tails[0])), format!("with covariance reset the estimator discards the obsolete shape and re-locks onto the new optimum (paper Fig. 8 / §5.2): the tail bound ends at {} under reset off / 3 / 6, against the optimum 80 (band: every reset setting nearer 80 than off)", tails.iter().map(|t| num(*t)).collect::<Vec<_>>().join(" / ")));
    r.note(format!("paper: without reset, stale history keeps the fit convex far longer; measured: intervals until the bound holds within 25 % of the new optimum — {}", recoveries.join(", ")));
    r
}

/// The Figure 13/14 table: the bound against the analytic optimum before
/// and after the jump at half the horizon; the note sets the controller's
/// response and tracking error against the `paper`'s words. Also returns
/// the pre- and post-jump mean bound and the new optimum.
fn jump_report(plan: &RunPlan, records: &[RunRecord], title: &str, paper: &str) -> (Report, [f64; 3]) {
    let (stats, traj) = (&records[0].stats, trajectories(&records[0]));
    let horizon = plan.variants[0].cell.horizon_ms;
    let pts = traj.bound.points();
    let jump_idx = pts
        .iter()
        .position(|&(t, _)| t >= horizon / 2.0)
        .unwrap_or(pts.len() / 2);

    // Pre/post tail means vs the analytic optimum.
    let pre = &pts[jump_idx.saturating_sub(jump_idx / 4)..jump_idx];
    let post = &pts[jump_idx + (pts.len() - jump_idx) * 3 / 4..];
    // Mean of `f(bound)` over a window of samples.
    let mean = |w: &[(f64, f64)], f: &dyn Fn(f64) -> f64| {
        w.iter().map(|&(_, b)| f(b)).sum::<f64>() / w.len().max(1) as f64
    };
    let opt_pre = traj
        .optimum
        .value_at(SimTime::new(pts[jump_idx.saturating_sub(1)].0))
        .unwrap_or(f64::NAN);
    let opt_post = traj.optimum.last_value().unwrap_or(f64::NAN);

    // Response time: intervals until the bound first comes within 25% of
    // the new optimum after the jump.
    let response = pts[jump_idx..]
        .iter()
        .position(|&(_, b)| (b - opt_post).abs() <= 0.25 * opt_post)
        .map_or("never".into(), |x| x.to_string());

    // Post-jump tracking error (mean |n* - n_opt| over the last quarter).
    let post_err = num(mean(post, &|b| (b - opt_post).abs()));

    let mut r = Report::new(&plan.name, title, &["metric", "value"]);
    r.push_row(vec!["samples".into(), pts.len().to_string()]);
    r.push_row(vec!["optimum_before".into(), num(opt_pre)]);
    r.push_row(vec!["optimum_after".into(), num(opt_post)]);
    let (pre_mean, post_mean) = (mean(pre, &|b| b), mean(post, &|b| b));
    r.push_row(vec!["pre_jump_mean_bound".into(), num(pre_mean)]);
    r.push_row(vec!["post_jump_mean_bound".into(), num(post_mean)]);
    r.push_row(vec!["response_intervals_to_25%".into(), response.clone()]);
    r.push_row(vec!["post_tracking_error".into(), post_err.clone()]);
    r.push_row(vec!["throughput_per_s".into(), num(stats.throughput_per_sec)]);
    r.push_row(vec!["abort_ratio".into(), num(stats.abort_ratio)]);
    r.chart(bound_chart(&traj.bound, &traj.optimum, 16));
    r.note(format!("paper: {paper}; measured: the bound first comes within 25 % of the new optimum after {response} interval(s), post-jump tracking error {post_err} (fig13 is IS, fig14 PA)"));
    (r, [pre_mean, post_mean, opt_post])
}

/// Figure 13: IS trajectory when the optimum's position jumps abruptly.
pub fn fig13(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let title = "Incremental Steps under an abrupt jump of the optimum (k: 8→16)";
    let paper = "IS 'reacts very quickly ... but has serious problems to adjust correctly to the new load situation'";
    let (mut r, _) = jump_report(plan, records, title, paper);
    let pts = trajectories(&records[0]).bound.points();
    let after = &pts[pts.len() / 2..];
    hunts(&mut r, "IS hunts around the new optimum over the second half, after the jump", after);
    r
}

/// Figure 14: PA trajectory on the same jump (same seed as `fig13`:
/// identical workload realization).
pub fn fig14(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let title = "Parabola Approximation under the same abrupt jump (k: 8→16)";
    let paper = "PA 'needs more time to respond but tracks the new optimum more accurately and reliably', its residual oscillation the §4.2 excitation dither";
    let (mut r, [pre, post, opt]) = jump_report(plan, records, title, paper);
    let off = pct((post - opt).abs(), opt);
    r.claim(post < pre && off <= 50.0, format!("PA follows the jump downward: its post-jump mean bound {} lies below the pre-jump {} and {}% from the new optimum {} (band: below, within 50 %)", num(post), num(pre), num(off), num(opt)));
    r
}

/// §9's gradual case: both controllers (one variant each) follow a
/// sinusoidally moving optimum.
pub fn sinus(plan: &RunPlan, records: &[RunRecord]) -> Report {
    let mut r = Report::new(
        &plan.name,
        "Sinusoidal workload: both controllers follow gradual changes (§9)",
        &[
            "controller",
            "tracking_error",
            "tracking_error_%_of_opt",
            "throughput_per_s",
            "abort_ratio",
        ],
    );
    let (mut errors, mut pa) = (Vec::new(), f64::NAN);
    for rec in records {
        let (name, traj) = (&rec.label, trajectories(rec));
        let (err, _, opt_mean) = tail_tracking(traj, 0.33);
        let err_pct = pct(err, opt_mean);
        r.push_row(vec![
            name.clone(),
            num(err),
            num(err_pct),
            num(rec.stats.throughput_per_sec),
            num(rec.stats.abort_ratio),
        ]);
        r.chart(format!("{name}:\n{}", bound_chart(&traj.bound, &traj.optimum, 12)));
        errors.push(format!("{name} {}%", num(err_pct)));
        if name == "PA" {
            pa = err_pct;
        }
    }
    r.note(format!("paper: 'both algorithms were able to follow gradual changes'; measured tracking errors, as a share of the optimum: {}", errors.join(", ")));
    r.claim(pa < 50.0, format!("PA follows the gradual change: its tracking error is {}% of the mean optimum (band: < 50 %)", num(pa)));
    r
}
