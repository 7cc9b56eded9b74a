//! One runner per paper artifact. `repro list` (README, "Quick start")
//! prints the index mapping each `figXX` id to the paper's figure; each
//! report's notes carry the paper-vs-measured outcome.

mod ablation;
mod dynamic;
mod stationary;

pub use ablation::{abl_hotspot, abl_interval, abl_is_failure, abl_open, abl_restart};
pub use dynamic::{fig03, fig07, fig08, fig13, fig14, sinus};
pub use stationary::{fig01, fig02, fig04, fig06, fig12, sec6};

use alc_core::controller::{IsParams, PaParams};
use alc_tpsim::config::{ControlConfig, SystemConfig};

use crate::report::Report;
use crate::Scale;

/// A figure runner: takes the scale and an optional directory for
/// trajectory CSVs, returns the printable/storable report.
pub type Runner = fn(Scale, Option<&std::path::Path>) -> Report;

/// The experiment catalog: `(id, title, runner)` for every figure and
/// ablation the `repro` binary can regenerate. Shared between the CLI and
/// the golden determinism tests so the two can never drift apart.
pub fn catalog() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("fig01", "load–throughput function with thrashing", |s, _| {
            fig01(s)
        }),
        ("fig02", "performance surface P(n,t) under sinusoidal k", |s, _| {
            fig02(s)
        }),
        ("fig03", "IS zig-zag trajectory (stationary)", fig03),
        ("fig04", "PA parabola fit vs true curve", |s, _| fig04(s)),
        ("fig06", "estimator memory shapes", |s, _| fig06(s)),
        ("fig07", "flat-hump pathology + fallbacks", fig07),
        ("fig08", "abrupt shape change + covariance reset", fig08),
        ("sec6", "overload indicator comparison", |s, _| sec6(s)),
        ("fig12", "throughput with vs without control", |s, _| fig12(s)),
        ("fig13", "IS trajectory under optimum jump", fig13),
        ("fig14", "PA trajectory under optimum jump", fig14),
        ("sinus", "sinusoidal workload tracking", sinus),
        // The ported ablations (abl-dither/alpha/displacement/rules/cc/
        // victim/hybrid) run via `scenario run scenarios/abl-*.json`;
        // their goldens are pinned by the scenario golden-port tests.
        ("abl-restart", "restart resampling ablation", |s, _| {
            abl_restart(s)
        }),
        ("abl-is-failure", "IS growing-height failure (§5.1)", |s, _| {
            abl_is_failure(s)
        }),
        ("abl-hotspot", "Zipf hot-spot extension", |s, _| abl_hotspot(s)),
        ("abl-interval", "§5 interval sizing + CI coverage", |s, _| {
            abl_interval(s)
        }),
        ("abl-open", "open arrivals: goodput/loss vs offered load", |s, _| {
            abl_open(s)
        }),
    ]
}

/// The paper-scale physical configuration (our calibration:
/// Yu-et-al. trace parameters are not public, so values are
/// chosen to land the optimum MPL in the low hundreds with a load axis to
/// 800, matching the figures' axes).
pub fn paper_system(terminals: u32, seed: u64) -> SystemConfig {
    SystemConfig {
        terminals,
        seed,
        ..SystemConfig::default()
    }
}

/// A CI-scale configuration: same shape, ~10× smaller and faster.
pub fn quick_system(terminals: u32, seed: u64) -> SystemConfig {
    SystemConfig {
        terminals,
        cpus: 4,
        db_size: 300,
        think: alc_des::dist::Dist::exponential(300.0),
        disk_access: alc_des::dist::Dist::constant(3.0),
        disk_init_commit: alc_des::dist::Dist::constant(40.0),
        seed,
        ..SystemConfig::default()
    }
}

/// System for the given scale.
pub fn system(scale: Scale, terminals_full: u32, seed: u64) -> SystemConfig {
    match scale {
        Scale::Full => paper_system(terminals_full, seed),
        Scale::Quick => quick_system(terminals_full.min(40), seed),
    }
}

/// Measurement/control configuration for the given scale.
pub fn control(scale: Scale) -> ControlConfig {
    ControlConfig {
        sample_interval_ms: scale.pick_ms(2000.0, 500.0),
        warmup_ms: scale.pick_ms(20_000.0, 2_000.0),
        ..ControlConfig::default()
    }
}

/// The paper-scale bound range.
pub fn max_bound(scale: Scale) -> u32 {
    scale.pick(800, 60)
}

/// Baseline IS tuning used across experiments.
pub fn is_params(scale: Scale) -> IsParams {
    IsParams {
        initial_bound: scale.pick(50, 5),
        min_bound: 1,
        max_bound: max_bound(scale),
        beta: 1.0,
        gamma: 4.0,
        delta: 16.0,
        min_step: 2.0,
        max_step: 48.0,
        smoothing: 1.0,
    }
}

/// Baseline PA tuning used across experiments.
pub fn pa_params(scale: Scale) -> PaParams {
    PaParams {
        initial_bound: scale.pick(50, 5),
        min_bound: 1,
        max_bound: max_bound(scale),
        alpha: 0.95,
        dither_amplitude: scale.pick_ms(8.0, 2.0),
        max_step: 48.0,
        warmup_samples: 8,
        warmup_step: scale.pick_ms(8.0, 2.0),
        ..PaParams::default()
    }
}

/// Simulation horizon for stationary sweeps.
pub fn sweep_horizon(scale: Scale) -> f64 {
    scale.pick_ms(140_000.0, 8_000.0)
}
