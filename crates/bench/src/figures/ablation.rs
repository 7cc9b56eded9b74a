//! Ablation experiments for the design choices the paper leaves open.
//!
//! Most of the ablation suite now lives as declarative scenario specs
//! under `scenarios/` (`abl-dither`, `abl-alpha`, `abl-displacement`,
//! `abl-rules`, `abl-cc`, `abl-victim`, `abl-hybrid`), pinned
//! byte-identical to the pre-port goldens by
//! `crates/scenario/tests/golden_port.rs`. This module keeps only the
//! experiments the DSL has no business expressing: the synthetic-surface
//! IS failure study, the Monte-Carlo interval-sizing check, and the
//! ablations over knobs without a spec-level axis.

use alc_analytic::surface::{RidgeSurface, Schedule, Surface};
use alc_core::controller::{IncrementalSteps, IsParams, LoadController as _, ParabolaApproximation};
use alc_core::measure::Measurement;
use alc_tpsim::config::{ArrivalProcess, CcKind, SystemConfig};
use alc_tpsim::experiment::run_trajectory;
use alc_tpsim::workload::WorkloadConfig;
use rayon::prelude::*;

use crate::report::Report;
use crate::table::num;
use crate::Scale;

use super::{control, is_params, max_bound, pa_params, sweep_horizon, system};

/// Restart-policy ablation: resampled vs identical access sets.
pub fn abl_restart(scale: Scale) -> Report {
    let mut sys = system(scale, 400, 0xAB3);
    // Crank contention up so restarts matter.
    sys.db_size /= 4;
    let workload = WorkloadConfig {
        write_frac: Schedule::Constant(0.6),
        query_frac: Schedule::Constant(0.0),
        ..WorkloadConfig::default()
    };
    let ctl = control(scale);
    let horizon = sweep_horizon(scale);
    let bound = max_bound(scale) / 4;

    let mut r = Report::new(
        "abl-restart",
        "Restart policy: fresh access set vs identical retry under high contention",
        &["resample_on_restart", "throughput_per_s", "abort_ratio", "conflicts_per_commit"],
    );
    for resample in [true, false] {
        let sys = SystemConfig {
            resample_on_restart: resample,
            ..sys
        };
        let stats = alc_tpsim::experiment::stationary_run(
            &sys,
            &workload,
            CcKind::Certification,
            bound,
            &ctl,
            horizon,
        );
        r.push_row(vec![
            resample.to_string(),
            num(stats.throughput_per_sec),
            num(stats.abort_ratio),
            num(stats.conflicts_per_commit),
        ]);
    }
    r.note("with uniform access and no hot spots the difference is modest (conflicts are not item-bound); the knob matters for skewed workloads and is exposed for them");
    r
}

/// The §5.1 IS failure mode: a growing optimum height in place lures IS
/// away; static bounds rescue it.
pub fn abl_is_failure(scale: Scale) -> Report {
    let steps = scale.pick(500, 100) as usize;
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
    for max_b in [2_000u32, 400] {
        let mut is = IncrementalSteps::new(IsParams {
            initial_bound: 100,
            max_bound: max_b,
            beta: 20.0,
            ..is_params(Scale::Full)
        });
        let mut bound = is.current_bound();
        let mut series = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = i as f64 * 2000.0;
            let n = f64::from(bound);
            let perf = surface.performance(n, t);
            bound = is.update(&Measurement::basic(t, 2000.0, perf, n));
            series.push(f64::from(bound));
        }
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
    }
    r.note("with a loose bound IS 'thinks to be on the way to the top, but actually goes astray' (§5.1) — the rising height makes every step look like an improvement; the tight static bound caps the excursion, exactly the countermeasure the paper mandates");
    r
}

/// Hot-spot extension: the paper's model excludes hot spots ("the data
/// items are selected randomly, i.e. no hot spots"). With Zipf-skewed
/// access the effective database shrinks, the optimum moves down and in —
/// and the feedback controllers keep tracking it without re-tuning.
pub fn abl_hotspot(scale: Scale) -> Report {
    let sys = system(scale, 600, 0xAB8);
    let ctl = control(scale);
    let horizon = sweep_horizon(scale);
    let nmax = max_bound(scale);

    let mut r = Report::new(
        "abl-hotspot",
        "Zipf access skew: optimum shift and controller tracking (hot-spot extension)",
        &[
            "skew_theta",
            "effective_db",
            "analytic_opt",
            "T_at_analytic_opt",
            "T_with_PA",
            "PA_mean_bound",
        ],
    );
    for theta in [0.0, 0.5, 0.8, 1.1] {
        let workload = WorkloadConfig {
            access_skew: Schedule::Constant(theta),
            ..WorkloadConfig::default()
        };
        let eff = alc_analytic::occ::effective_db_size(sys.db_size, theta);
        let opt = workload.analytic_optimum(0.0, &sys, nmax);
        let fixed_at_opt = alc_tpsim::experiment::stationary_run(
            &sys,
            &workload,
            CcKind::Certification,
            opt,
            &ctl,
            horizon,
        );
        let pa = ParabolaApproximation::new(pa_params(scale));
        let (pa_stats, _) = run_trajectory(
            &sys,
            &workload,
            CcKind::Certification,
            &ctl,
            Box::new(pa),
            horizon,
            false,
        );
        r.push_row(vec![
            num(theta),
            num(eff),
            opt.to_string(),
            num(fixed_at_opt.throughput_per_sec),
            num(pa_stats.throughput_per_sec),
            num(pa_stats.mean_bound),
        ]);
    }
    r.note("skew shrinks the effective database (1/Σp²) by up to ~100×, collapsing the achievable peak; under self-limiting certification the optimum's *position* stays near the resource knee while its *height* falls");
    r.note("PA lands within ~2% of the per-skew optimal throughput without any knowledge of the skew — the model-independence argument extended past the paper's uniform-access assumption");
    r
}

/// Open-arrival extension: the paper's model is closed (terminals with
/// think time bound the load by construction); real admission control
/// faces an *open* stream whose offered rate answers to nobody. Sweep the
/// offered load across the capacity and compare uncontrolled admission
/// against the PA-adapted gate.
pub fn abl_open(scale: Scale) -> Report {
    let horizon = sweep_horizon(scale);
    let slots = scale.pick(800, 80);
    let sys_base = system(scale, slots, 0xABA);
    let workload = WorkloadConfig {
        write_frac: Schedule::Constant(0.5),
        query_frac: Schedule::Constant(0.1),
        ..WorkloadConfig::default()
    };
    let ctl = control(scale);
    // Offered rates bracketing the (closed-model) peak throughput.
    let rates_per_s: Vec<f64> = match scale {
        Scale::Full => vec![50.0, 100.0, 150.0, 200.0, 300.0, 400.0],
        Scale::Quick => vec![20.0, 40.0, 80.0, 160.0],
    };

    let mut r = Report::new(
        "abl-open",
        "Open arrivals (extension): goodput and loss vs offered load, with and without control",
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
    // Each offered rate is a pair of independent runs — fan the rates out.
    let results: Vec<_> = rates_per_s
        .par_iter()
        .map(|&rate| {
            let sys = SystemConfig {
                arrival: ArrivalProcess::Open {
                    interarrival: alc_des::dist::Dist::exponential(1000.0 / rate),
                },
                ..sys_base
            };
            let uncontrolled = alc_tpsim::experiment::stationary_run(
                &sys,
                &workload,
                CcKind::Certification,
                u32::MAX,
                &ctl,
                horizon,
            );
            let pa = ParabolaApproximation::new(pa_params(scale));
            let (with_pa, _) = run_trajectory(
                &sys,
                &workload,
                CcKind::Certification,
                &ctl,
                Box::new(pa),
                horizon,
                false,
            );
            (rate, uncontrolled, with_pa)
        })
        .collect();
    for (rate, uncontrolled, with_pa) in results {
        r.push_row(vec![
            num(rate),
            num(uncontrolled.throughput_per_sec),
            num(with_pa.throughput_per_sec),
            num(uncontrolled.mean_response_ms),
            num(with_pa.mean_response_ms),
            uncontrolled.lost.to_string(),
            with_pa.lost.to_string(),
        ]);
    }
    r.note("below capacity the gate is invisible (same goodput, same response); past it the uncontrolled system converts concurrency into aborted work and collapses, while the controlled one holds goodput near the closed-model peak and sheds the excess as queueing + loss — the open-system case for admission control that the closed model can only hint at");
    r
}

/// §5 measurement-interval sizing validated by Monte Carlo: size the
/// interval from the measured departure process, then check the CI
/// actually covers the true throughput at the promised rate.
pub fn abl_interval(scale: Scale) -> Report {
    use alc_core::sampler::{CiInterval, IntervalPolicy};
    use alc_des::dist::{Dist, Erlang, HyperExp, Sample as _};
    use alc_des::interval::required_departures;
    use alc_des::rng::RngStream;
    use alc_des::stats::ConfidenceLevel;

    let events = scale.pick(400_000, 40_000) as usize;
    let accuracy = 0.1;
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
    for (name, dist, scv_true) in processes {
        // alc-lint: allow(seed-literal, reason="fixed figure-fixture seed, xored per process for distinct streams")
        let mut rng = RngStream::from_seed(0xAB9 ^ scv_true.to_bits());
        let mut ci = CiInterval::new(accuracy, ConfidenceLevel::P95, 50.0, 1e7, 1000.0);
        let true_rate = 0.2; // mean 5 ms
        let mut t = 0.0f64;
        let mut interval_end = IntervalPolicy::current_ms(&ci);
        let mut interval_start = 0.0f64;
        let mut count = 0u64;
        let mut estimates: Vec<f64> = Vec::new();
        for _ in 0..events {
            t += dist.sample(&mut rng);
            while t >= interval_end {
                let len = interval_end - interval_start;
                let m = Measurement {
                    departures: count,
                    ..Measurement::basic(interval_end, len, 0.0, 0.0)
                };
                estimates.push(count as f64 / len);
                let next = IntervalPolicy::observe(&mut ci, &m);
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
            .filter(|&&x| (x - true_rate).abs() <= accuracy * true_rate)
            .count();
        let coverage = 100.0 * covered as f64 / tail.len().max(1) as f64;
        r.push_row(vec![
            name.to_string(),
            num(scv_true),
            num(ci.estimator().scv()),
            num(required_departures(scv_true, accuracy, ConfidenceLevel::P95)),
            num(IntervalPolicy::current_ms(&ci)),
            num(coverage),
        ]);
    }
    r.note("the required interval spans a ~30× range across processes with the *same* mean rate — the second moments, not the rate, set the §5 interval length ('this interval length clearly depends on the parameters of the departure process, especially its second moments')");
    r.note("achieved coverage lands within a few points of the promised 95% for the smooth and Poisson processes; the bursty process under-covers (the renewal CLT is only asymptotic and the sizing itself is estimated online) — the formula is the right first-order guide, not an exact guarantee");
    r
}
