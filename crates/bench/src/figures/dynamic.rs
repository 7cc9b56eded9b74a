//! Dynamic experiments: trajectories under stationary (Fig. 3), jump
//! (Figs. 13/14), sinusoidal (§9) and pathological (Figs. 7/8) workloads.

use std::path::Path;

use alc_analytic::surface::{FlatHumpSurface, RidgeSurface, Schedule, Surface};
use alc_core::controller::{
    FallbackPolicy, IncrementalSteps, LoadController, ParabolaApproximation,
};
use alc_core::measure::Measurement;
use alc_des::series::{write_aligned_csv, TimeSeries};
use alc_tpsim::config::CcKind;
use alc_tpsim::engine::Trajectories;
use alc_tpsim::experiment::run_trajectory;
use alc_tpsim::workload::WorkloadConfig;
use rayon::prelude::*;

use crate::plot;
use crate::report::Report;
use crate::table::num;
use crate::Scale;

use super::{control, is_params, pa_params, system};

/// Shared jump scenario of Figures 13/14: `k` jumps mid-run, which moves
/// the optimum's position abruptly.
fn jump_workload(scale: Scale, horizon_ms: f64) -> WorkloadConfig {
    match scale {
        Scale::Full => WorkloadConfig::k_jump(8.0, 16.0, horizon_ms / 2.0),
        Scale::Quick => WorkloadConfig::k_jump(4.0, 8.0, horizon_ms / 2.0),
    }
}

fn trajectory_horizon(scale: Scale) -> f64 {
    scale.pick_ms(2_000_000.0, 20_000.0) // 1000 intervals at Δt=2s (paper's axis)
}

fn write_trajectories(
    id: &str,
    traj: &Trajectories,
    out_dir: Option<&Path>,
) -> std::io::Result<()> {
    let Some(dir) = out_dir else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let f = std::fs::File::create(dir.join(format!("{id}_trajectory.csv")))?;
    write_aligned_csv(
        std::io::BufWriter::new(f),
        &[
            &traj.bound,
            &traj.observed_mpl,
            &traj.throughput,
            &traj.optimum,
            &traj.k,
        ],
    )
}

/// Tracking summary against the analytic optimum line over a tail window.
fn tail_tracking(traj: &Trajectories, from_frac: f64) -> (f64, f64, f64) {
    let pts = traj.bound.points();
    let start = ((pts.len() as f64) * from_frac) as usize;
    let mut err = 0.0;
    let mut bound_mean = 0.0;
    let mut opt_mean = 0.0;
    let mut n = 0.0;
    for &(t, b) in pts.iter().skip(start) {
        let opt = traj
            .optimum
            .value_at(alc_des::SimTime::new(t))
            .unwrap_or(f64::NAN);
        if opt.is_finite() {
            err += (b - opt).abs();
            bound_mean += b;
            opt_mean += opt;
            n += 1.0;
        }
    }
    if n == 0.0 {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        (err / n, bound_mean / n, opt_mean / n)
    }
}

/// Figure 3: the Incremental Steps zig-zag around a stationary optimum.
pub fn fig03(scale: Scale, out_dir: Option<&Path>) -> Report {
    let horizon = scale.pick_ms(800_000.0, 20_000.0);
    let sys = system(scale, 500, 0xF1603);
    let ctl = alc_tpsim::config::ControlConfig {
        warmup_ms: 0.0,
        ..control(scale)
    };
    let (stats, traj) = run_trajectory(
        &sys,
        &WorkloadConfig::default(),
        CcKind::Certification,
        &ctl,
        Box::new(IncrementalSteps::new(is_params(scale))),
        horizon,
        true,
    );
    write_trajectories("fig03", &traj, out_dir).expect("trajectory CSV");

    // Zig-zag: count direction changes over the second half.
    let pts = traj.bound.points();
    let half = &pts[pts.len() / 2..];
    let mut flips = 0;
    let mut last_dir = 0i8;
    for w in half.windows(2) {
        let d = (w[1].1 - w[0].1).signum() as i8;
        if d != 0 && last_dir != 0 && d != last_dir {
            flips += 1;
        }
        if d != 0 {
            last_dir = d;
        }
    }
    let (err, bound_mean, opt_mean) = tail_tracking(&traj, 0.5);

    let mut r = Report::new(
        "fig03",
        "Trajectory of the Method of Incremental Steps (zig-zag ridge tracking)",
        &["metric", "value"],
    );
    r.push_row(vec!["samples".into(), pts.len().to_string()]);
    r.push_row(vec!["direction_changes_2nd_half".into(), flips.to_string()]);
    r.push_row(vec!["tail_mean_bound".into(), num(bound_mean)]);
    r.push_row(vec!["analytic_optimum".into(), num(opt_mean)]);
    r.push_row(vec!["tail_mean_abs_error".into(), num(err)]);
    r.push_row(vec![
        "throughput_per_s".into(),
        num(stats.throughput_per_sec),
    ]);
    r.chart(plot::chart(
        &[("bound n*(t)", &traj.bound), ("optimum", &traj.optimum)],
        96,
        16,
    ));
    r.note("the bound oscillates around the optimum in zig-zag fashion — each worsening measurement flips the direction (paper Fig. 3)");
    r
}

/// Drives a controller against a synthetic surface (no simulator noise),
/// returning (bound series, optimum series).
fn drive_surface(
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
        bound_series.push(alc_des::SimTime::new(t), f64::from(bound));
        opt_series.push(alc_des::SimTime::new(t), surface.optimum(t));
    }
    (bound_series, opt_series)
}

/// Figure 7: the flat-hump pathology — fits open upward; the fallback
/// policy decides whether the controller survives. Compares the §5.2
/// countermeasures.
pub fn fig07(scale: Scale, out_dir: Option<&Path>) -> Report {
    let surface = FlatHumpSurface {
        center: Schedule::Constant(200.0),
        height: Schedule::Constant(120.0),
        width: 120.0,
    };
    let steps = scale.pick(400, 80) as usize;
    let policies: Vec<(&str, FallbackPolicy)> = vec![
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
    // The three fallback-policy drives are independent and noise-free —
    // run them concurrently, then do file I/O and row assembly in order.
    let results: Vec<_> = policies
        .par_iter()
        .map(|&(name, policy)| {
            let mut pa = ParabolaApproximation::new(alc_core::controller::PaParams {
                initial_bound: 40,
                max_bound: 500,
                fallback: policy,
                ..pa_params(Scale::Full)
            });
            let (bounds, _) = drive_surface(&mut pa, &surface, steps, 2000.0);
            (name, bounds, pa.diagnostics())
        })
        .collect();
    for (name, bounds, d) in results {
        if name == "gradient-probe" {
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(dir).expect("results dir");
                let f = std::fs::File::create(dir.join("fig07_trajectory.csv"))
                    .expect("fig07 csv");
                bounds.write_csv(std::io::BufWriter::new(f)).expect("csv");
            }
        }
        let total = d.convex_fits + d.vertex_updates;
        let tail = bounds.tail_mean(0.25);
        let perf_pct = 100.0 * surface.performance(tail, 0.0) / 120.0;
        r.push_row(vec![
            name.to_string(),
            num(100.0 * d.convex_fits as f64 / total.max(1) as f64),
            d.covariance_resets.to_string(),
            num(tail),
            num(perf_pct),
        ]);
    }
    r.note("a broad flat hump yields upward-opening fits essentially permanently (paper Fig. 7); a naive vertex-chaser would fling the bound toward ±∞");
    r.note("gradient-probe and clamp-to-safe finish on the plateau top (≈100% of peak); hold-last merely freezes wherever the pathology began (≈64% here) — why GradientProbe is the default fallback");
    r
}

/// Figure 8: abrupt shape change — the bound suddenly sits deep in the
/// (convex) thrashing region; covariance reset + probing must recover.
pub fn fig08(scale: Scale, out_dir: Option<&Path>) -> Report {
    let steps = scale.pick(600, 120) as usize;
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
    for reset_after in [0u32, 3, 6] {
        let mut pa = ParabolaApproximation::new(alc_core::controller::PaParams {
            initial_bound: 50,
            max_bound: 600,
            reset_after_convex: reset_after,
            alpha: 0.9,
            ..pa_params(Scale::Full)
        });
        let (bounds, opts) = drive_surface(&mut pa, &surface, steps, interval);
        if reset_after == 6 {
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(dir).expect("results dir");
                let f = std::fs::File::create(dir.join("fig08_trajectory.csv"))
                    .expect("fig08 csv");
                write_aligned_csv(
                    std::io::BufWriter::new(f),
                    &[&bounds, &opts],
                )
                .expect("csv");
            }
            r.chart(plot::chart(
                &[("bound n*(t)", &bounds), ("optimum", &opts)],
                96,
                12,
            ));
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
        r.push_row(vec![
            if reset_after == 0 {
                "off".to_string()
            } else {
                reset_after.to_string()
            },
            recovery.map_or("never".to_string(), |x| x.to_string()),
            num(bounds.tail_mean(0.2)),
            "80".to_string(),
            d.covariance_resets.to_string(),
        ]);
    }
    r.note("with covariance reset the estimator discards the obsolete shape and re-locks onto the new optimum (paper Fig. 8 / §5.2); without it, stale history keeps the fit convex far longer");
    r
}

/// Shared runner for the Figure 13/14 jump scenarios.
fn jump_run(
    scale: Scale,
    ctrl: Box<dyn LoadController>,
    seed_tag: u64,
) -> (alc_tpsim::engine::RunStats, Trajectories, f64) {
    let horizon = trajectory_horizon(scale);
    let workload = jump_workload(scale, horizon);
    let sys = system(scale, 500, seed_tag);
    let ctl = alc_tpsim::config::ControlConfig {
        warmup_ms: 0.0,
        ..control(scale)
    };
    let (stats, traj) = run_trajectory(
        &sys,
        &workload,
        CcKind::Certification,
        &ctl,
        ctrl,
        horizon,
        true,
    );
    (stats, traj, horizon)
}

fn jump_report(
    id: &str,
    title: &str,
    stats: &alc_tpsim::engine::RunStats,
    traj: &Trajectories,
    horizon: f64,
) -> Report {
    let pts = traj.bound.points();
    let jump_idx = pts
        .iter()
        .position(|&(t, _)| t >= horizon / 2.0)
        .unwrap_or(pts.len() / 2);

    // Pre/post tail means vs the analytic optimum.
    let pre_bound: Vec<f64> = pts[jump_idx.saturating_sub(jump_idx / 4)..jump_idx]
        .iter()
        .map(|&(_, b)| b)
        .collect();
    let post_start = jump_idx + (pts.len() - jump_idx) * 3 / 4;
    let post_bound: Vec<f64> = pts[post_start..].iter().map(|&(_, b)| b).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let opt_pre = traj
        .optimum
        .value_at(alc_des::SimTime::new(pts[jump_idx.saturating_sub(1)].0))
        .unwrap_or(f64::NAN);
    let opt_post = traj
        .optimum
        .last_value()
        .unwrap_or(f64::NAN);

    // Response time: intervals until the bound first comes within 25% of
    // the new optimum after the jump.
    let response = pts[jump_idx..]
        .iter()
        .position(|&(_, b)| (b - opt_post).abs() <= 0.25 * opt_post);

    // Post-jump tracking error (mean |n* - n_opt| over the last quarter).
    let mut post_err = 0.0;
    for &(_, b) in &pts[post_start..] {
        post_err += (b - opt_post).abs();
    }
    post_err /= post_bound.len().max(1) as f64;

    let mut r = Report::new(id, title, &["metric", "value"]);
    r.push_row(vec!["samples".into(), pts.len().to_string()]);
    r.push_row(vec!["optimum_before".into(), num(opt_pre)]);
    r.push_row(vec!["optimum_after".into(), num(opt_post)]);
    r.push_row(vec!["pre_jump_mean_bound".into(), num(mean(&pre_bound))]);
    r.push_row(vec!["post_jump_mean_bound".into(), num(mean(&post_bound))]);
    r.push_row(vec![
        "response_intervals_to_25%".into(),
        response.map_or("never".into(), |x| x.to_string()),
    ]);
    r.push_row(vec!["post_tracking_error".into(), num(post_err)]);
    r.push_row(vec![
        "throughput_per_s".into(),
        num(stats.throughput_per_sec),
    ]);
    r.push_row(vec!["abort_ratio".into(), num(stats.abort_ratio)]);
    r.chart(plot::chart(
        &[("bound n*(t)", &traj.bound), ("optimum", &traj.optimum)],
        96,
        16,
    ));
    r
}

/// Figure 13: IS trajectory when the optimum's position jumps abruptly.
pub fn fig13(scale: Scale, out_dir: Option<&Path>) -> Report {
    let (stats, traj, horizon) = jump_run(
        scale,
        Box::new(IncrementalSteps::new(is_params(scale))),
        0xF1613,
    );
    write_trajectories("fig13", &traj, out_dir).expect("trajectory CSV");
    let mut r = jump_report(
        "fig13",
        "Incremental Steps under an abrupt jump of the optimum (k: 8→16)",
        &stats,
        &traj,
        horizon,
    );
    r.note("IS reacts quickly to the jump but hunts around the new optimum (paper: 'reacts very quickly ... but has serious problems to adjust correctly to the new load situation')");
    r
}

/// Figure 14: PA trajectory on the same jump.
pub fn fig14(scale: Scale, out_dir: Option<&Path>) -> Report {
    let (stats, traj, horizon) = jump_run(
        scale,
        Box::new(ParabolaApproximation::new(pa_params(scale))),
        0xF1613, // same seed as fig13: identical workload realization
    );
    write_trajectories("fig14", &traj, out_dir).expect("trajectory CSV");
    let mut r = jump_report(
        "fig14",
        "Parabola Approximation under the same abrupt jump (k: 8→16)",
        &stats,
        &traj,
        horizon,
    );
    r.note("PA needs more time to respond but tracks the new optimum more accurately and reliably; the residual oscillation is the §4.2 excitation dither (paper Fig. 14)");
    r
}

/// §9's gradual case: both controllers follow a sinusoidally moving
/// optimum.
pub fn sinus(scale: Scale, out_dir: Option<&Path>) -> Report {
    let horizon = scale.pick_ms(1_800_000.0, 24_000.0);
    let period = horizon / 3.0;
    let workload = WorkloadConfig::k_sinusoid(10.0, 4.0, period);
    let sys = system(scale, 500, 0xF16AA);
    let ctl = alc_tpsim::config::ControlConfig {
        warmup_ms: 0.0,
        ..control(scale)
    };

    let mut r = Report::new(
        "sinus",
        "Sinusoidal workload: both controllers follow gradual changes (§9)",
        &[
            "controller",
            "tracking_error",
            "tracking_error_%_of_opt",
            "throughput_per_s",
            "abort_ratio",
        ],
    );
    // IS and PA are independent runs on the same scenario. Controllers
    // are built inside the workers via paired constructors (a boxed
    // controller need not be Send, and pairing name with builder leaves
    // no fallthrough to mislabel a future addition).
    type Build = Box<dyn Fn() -> Box<dyn LoadController> + Sync>;
    let controllers: Vec<(&str, Build)> = vec![
        (
            "IS",
            Box::new(move || Box::new(IncrementalSteps::new(is_params(scale)))),
        ),
        (
            "PA",
            Box::new(move || Box::new(ParabolaApproximation::new(pa_params(scale)))),
        ),
    ];
    let results: Vec<_> = controllers
        .par_iter()
        .map(|(name, build)| {
            let ctrl = build();
            let (stats, traj) = run_trajectory(
                &sys,
                &workload,
                CcKind::Certification,
                &ctl,
                ctrl,
                horizon,
                true,
            );
            (name, stats, traj)
        })
        .collect();
    for (name, stats, traj) in results {
        if let Some(dir) = out_dir {
            write_trajectories(&format!("sinus_{name}"), &traj, Some(dir))
                .expect("trajectory CSV");
        }
        let (err, _, opt_mean) = tail_tracking(&traj, 0.33);
        r.push_row(vec![
            name.to_string(),
            num(err),
            num(100.0 * err / opt_mean),
            num(stats.throughput_per_sec),
            num(stats.abort_ratio),
        ]);
        r.chart(format!(
            "{name}:\n{}",
            plot::chart(
                &[("bound n*(t)", &traj.bound), ("optimum", &traj.optimum)],
                96,
                12,
            )
        ));
    }
    r.note("'While both algorithms were able to follow gradual changes…' — tracking errors stay a modest fraction of the optimum for IS and PA alike");
    r
}
