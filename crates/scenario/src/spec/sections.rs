//! The per-section parsers of a spec.

use std::fmt::Display;
use std::path::Path;

use alc_core::controller::{
    HybridParams, IsParams, IyerRuleParams, OuterParams, PaParams, RetryBudgetParams,
};
use alc_core::measure::PerfIndicator;
use alc_core::meta::{GuardParams, LadderSignal};
use alc_des::dist::{Dist, Sample as _};
use alc_tpsim::client::{ClientConfig, RetryPolicy};
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig, VictimPolicy};
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

use super::{
    cc_spec_name, AdaptiveCcSpec, CcSpec, ControllerSpec, FaultSpec, MetaPolicySpec, PivotSpec,
    StatColumn, SweepAxis, SweepSpec, VariantInputs, VariantSpec,
};
use crate::profile::schedule_from_value;
use crate::value_util::{
    arrival_process, at_least_one, boolean, distribution, fraction, list, named, non_negative,
    nonempty, number, open_rate, pairs, positive, positive_u32, single_key, string, timed,
    u32_from, u64_from, unknown_key, At, Keys, Obj,
};
use crate::SpecError;

/// Parses a CC protocol by its one spec name ([`cc_spec_name`]).
pub(super) fn cc_from_value(v: &Value) -> Result<CcKind, SpecError> {
    let known = CcKind::ALL.map(cc_spec_name);
    let Value::Str(name) = v else {
        return Err(SpecError::new(format!(
            "a `cc` protocol is a name ({})",
            known.join(", ")
        )));
    };
    CcKind::ALL
        .into_iter()
        .find(|&cc| cc_spec_name(cc) == name)
        .ok_or_else(|| unknown_key("cc", name, known))
}

/// Parses a distribution whose mean must be positive: an outage
/// length, a client's patience.
fn dist(v: &Value, at: At<'_>) -> Result<Dist, SpecError> {
    let d = distribution(v, at)?;
    if d.mean().is_nan() || d.mean() <= 0.0 {
        return Err(SpecError::new(format!(
            "`{at}` needs a distribution with positive mean"
        )));
    }
    Ok(d)
}

/// The controllers written as a bare name.
pub(super) const CONTROLLER_NAMES: [(&str, ControllerSpec); 2] = [
    ("none", ControllerSpec::None),
    ("unlimited", ControllerSpec::Unlimited),
];

/// The controller kinds written as single-key objects.
pub(super) const CONTROLLER: Keys = &[
    "fixed",
    "fixed_analytic_optimum",
    "is",
    "pa",
    "iyer",
    "retry_budget",
    "tay",
    "hybrid",
    "self_tuning_is",
    "self_tuning_pa",
];

/// `p` if it keeps the rules its own type states (`check`), else the
/// first one it breaks, named `<at>.<field>`: a spec fails here, by
/// field, instead of panicking the constructor in `run`.
fn checked<T>(
    p: T,
    at: impl Display,
    check: fn(&T) -> Result<(), String>,
) -> Result<T, SpecError> {
    check(&p).map_err(|e| SpecError::new(format!("{at}.{e}")))?;
    Ok(p)
}

pub(super) fn controller_from_value(v: &Value) -> Result<ControllerSpec, SpecError> {
    if let Value::Str(s) = v {
        if CONTROLLER.contains(&s.as_str()) {
            return Err(SpecError::new(format!(
                "`controller` `{s}` is an object: write it {{\"{s}\": {{}}}}"
            )));
        }
        return CONTROLLER_NAMES
            .iter()
            .find(|(name, _)| name == s)
            .map(|(_, c)| c.clone())
            .ok_or_else(|| unknown_key("controller", s, CONTROLLER_NAMES.map(|(n, _)| n)));
    }
    let (tag, payload) = single_key(v, "controller", CONTROLLER)?;
    let at = At("controller", tag);
    let section = at.to_string();
    Ok(match tag {
        "fixed" => {
            let mut o = Obj::open(payload, &section)?;
            let bound = o.req("bound", positive_u32)?;
            o.finish(ControllerSpec::Fixed { bound })?
        }
        "fixed_analytic_optimum" => {
            let mut o = Obj::open(payload, &section)?;
            let c = ControllerSpec::FixedAnalyticOptimum {
                at_ms: o.or("at_ms", number, 0.0)?,
                n_max: o.req("n_max", positive_u32)?,
            };
            o.finish(c)?
        }
        "is" => ControllerSpec::Is(is_params(payload, at)?),
        "pa" => ControllerSpec::Pa(pa_params(payload, at)?),
        "self_tuning_is" => {
            let mut o = Obj::open(payload, &section)?;
            let c = ControllerSpec::SelfTuningIs {
                is: o.or_defaults("is", is_params)?,
                outer: o.or_defaults("outer", outer_params)?,
            };
            o.finish(c)?
        }
        "self_tuning_pa" => {
            let mut o = Obj::open(payload, &section)?;
            let pa = o.or_defaults("pa", pa_params)?;
            o.finish(ControllerSpec::SelfTuningPa(pa))?
        }
        "hybrid" => {
            let mut o = Obj::open(payload, &section)?;
            let p = HybridParams {
                is: o.or_defaults("is", is_params)?,
                pa: o.or_defaults("pa", pa_params)?,
            };
            ControllerSpec::Hybrid(checked(o.finish(p)?, at, HybridParams::check)?)
        }
        "iyer" => ControllerSpec::Iyer(iyer_params(payload, at)?),
        "retry_budget" => ControllerSpec::RetryBudget(retry_budget_params(payload, at)?),
        // Tay's rule also reads `system.db_size`: the spec asks
        // `TayRule::check` once every section is read.
        "tay" => {
            let mut o = Obj::open(payload, &section)?;
            let c = ControllerSpec::Tay {
                k: o.req("k", positive_u32)?,
                min_bound: o.or("min_bound", u32_from, 1)?,
                max_bound: o.req("max_bound", u32_from)?,
            };
            o.finish(c)?
        }
        other => return Err(unknown_key("controller", other, CONTROLLER)),
    })
}

/// Reads the IS parameters at `at`: overrides on [`IsParams::default`],
/// range-checked.
fn is_params(v: &Value, at: At<'_>) -> Result<IsParams, SpecError> {
    let mut o = Obj::open(v, at)?;
    let d = IsParams::default();
    let p = IsParams {
        initial_bound: o.or("initial_bound", u32_from, d.initial_bound)?,
        min_bound: o.or("min_bound", u32_from, d.min_bound)?,
        max_bound: o.or("max_bound", u32_from, d.max_bound)?,
        beta: o.or("beta", number, d.beta)?,
        gamma: o.or("gamma", number, d.gamma)?,
        delta: o.or("delta", number, d.delta)?,
        min_step: o.or("min_step", number, d.min_step)?,
        max_step: o.or("max_step", number, d.max_step)?,
        smoothing: o.or("smoothing", number, d.smoothing)?,
    };
    checked(o.finish(p)?, at, IsParams::check)
}

/// Reads the PA parameters at `at`: overrides on [`PaParams::default`],
/// range-checked. The §5.2 countermeasure keeps its default: only
/// figure code sets it.
fn pa_params(v: &Value, at: At<'_>) -> Result<PaParams, SpecError> {
    let mut o = Obj::open(v, at)?;
    let d = PaParams::default();
    let p = PaParams {
        initial_bound: o.or("initial_bound", u32_from, d.initial_bound)?,
        min_bound: o.or("min_bound", u32_from, d.min_bound)?,
        max_bound: o.or("max_bound", u32_from, d.max_bound)?,
        alpha: o.or("alpha", number, d.alpha)?,
        warmup_samples: o.or("warmup_samples", u64_from, d.warmup_samples)?,
        warmup_step: o.or("warmup_step", number, d.warmup_step)?,
        dither_amplitude: o.or("dither_amplitude", number, d.dither_amplitude)?,
        max_step: o.or("max_step", number, d.max_step)?,
        fallback: d.fallback,
        reset_after_convex: d.reset_after_convex,
    };
    checked(o.finish(p)?, at, PaParams::check)
}

/// Reads the outer-loop parameters at `at`: overrides on
/// [`OuterParams::default`].
fn outer_params(v: &Value, at: At<'_>) -> Result<OuterParams, SpecError> {
    let mut o = Obj::open(v, at)?;
    let p = OuterParams {
        window: o.or("window", u32_from, OuterParams::default().window)?,
    };
    checked(o.finish(p)?, at, OuterParams::check)
}

/// Reads `controller.iyer`: overrides on [`IyerRuleParams::default`].
fn iyer_params(v: &Value, at: At<'_>) -> Result<IyerRuleParams, SpecError> {
    let mut o = Obj::open(v, at)?;
    let d = IyerRuleParams::default();
    let p = IyerRuleParams {
        target: o.or("target", number, d.target)?,
        initial_bound: o.or("initial_bound", u32_from, d.initial_bound)?,
        max_bound: o.or("max_bound", u32_from, d.max_bound)?,
    };
    checked(o.finish(p)?, at, IyerRuleParams::check)
}

/// Reads `controller.retry_budget`: overrides on
/// [`RetryBudgetParams::default`].
fn retry_budget_params(v: &Value, at: At<'_>) -> Result<RetryBudgetParams, SpecError> {
    let mut o = Obj::open(v, at)?;
    let d = RetryBudgetParams::default();
    let p = RetryBudgetParams {
        initial_bound: o.or("initial_bound", u32_from, d.initial_bound)?,
        min_bound: o.or("min_bound", u32_from, d.min_bound)?,
        max_bound: o.or("max_bound", u32_from, d.max_bound)?,
        budget: o.or("budget", number, d.budget)?,
        burst: o.or("burst", number, d.burst)?,
    };
    checked(o.finish(p)?, at, RetryBudgetParams::check)
}

/// The adaptive-`cc` policies, each a single-key object.
pub(super) const POLICY: Keys = &["conflict_threshold", "restart_rate", "shadow_score"];

/// Parses the policy object of an adaptive `cc` section (its ranges are
/// the policy's own `check`, asked once the whole section is read).
fn meta_policy_from_value(v: &Value) -> Result<MetaPolicySpec, SpecError> {
    let (tag, payload) = single_key(v, "cc.adaptive.policy", POLICY)?;
    let ewma = |o: &mut Obj<'_>| o.or("ewma_weight", number, 0.3);
    match tag {
        "shadow_score" => {
            let mut o = Obj::open(payload, tag)?;
            let ewma_weight = ewma(&mut o)?;
            o.finish(MetaPolicySpec::ShadowScore { ewma_weight })
        }
        "conflict_threshold" | "restart_rate" => {
            let mut o = Obj::open(payload, tag)?;
            let signal = if tag == "conflict_threshold" {
                LadderSignal::ConflictsPerTxn
            } else {
                LadderSignal::AbortRatio
            };
            let threshold = o.req("threshold", number)?;
            let ewma_weight = ewma(&mut o)?;
            o.finish(MetaPolicySpec::Ladder {
                signal,
                threshold,
                ewma_weight,
            })
        }
        other => Err(unknown_key("cc.adaptive.policy", other, POLICY)),
    }
}

/// Parses the `{"adaptive": …}` payload of the `cc` field. The policy's
/// own `check` is reported under `cc.adaptive.`; the reader adds only
/// the seconds-valued guards and that no candidate repeats.
fn adaptive_from_value(v: &Value) -> Result<AdaptiveCcSpec, SpecError> {
    let mut o = Obj::open(v, "cc.adaptive")?;
    let adaptive = AdaptiveCcSpec {
        candidates: o.opt("candidates", list(cc_from_value))?.unwrap_or_default(),
        policy: o.req("policy", |v, _| meta_policy_from_value(v))?,
        guard: GuardParams {
            min_dwell_ms: o.req("min_dwell_s", non_negative)? * 1000.0,
            cooldown_ms: o.or("cooldown_s", non_negative, 0.0)? * 1000.0,
            hysteresis: o.or("hysteresis", number, 0.25)?,
        },
    };
    o.finish(())?;
    adaptive
        .check()
        .map_err(|e| SpecError::new(format!("cc.adaptive.{e}")))?;
    for (i, c) in adaptive.candidates.iter().enumerate() {
        if adaptive.candidates[..i].contains(c) {
            return Err(SpecError::new(format!(
                "duplicate adaptive candidate `{}`",
                cc_spec_name(*c)
            )));
        }
    }
    Ok(adaptive)
}

/// The `cc` forms written as single-key objects (a bare name is one
/// protocol for the whole run).
pub(super) const CC_FORMS: Keys = &["phases", "adaptive"];

/// Parses the `cc` field: a protocol name,
/// `{"phases": [[t_ms, cc], …]}` (strictly ascending, the first at 0)
/// for scheduled switches, or `{"adaptive": …}` for closed-loop
/// protocol selection.
pub(super) fn cc_field_from_value(v: &Value) -> Result<CcSpec, SpecError> {
    if let Value::Str(_) = v {
        return cc_from_value(v).map(CcSpec::Fixed);
    }
    let (tag, payload) = single_key(v, "cc", CC_FORMS)?;
    match tag {
        "phases" => {
            let phases = timed(payload, "cc.phases", cc_from_value)?;
            if phases.first().map(|&(t, _)| t) != Some(0.0) {
                return Err(SpecError::new("`cc.phases` must start with an entry at 0"));
            }
            if phases.windows(2).any(|w| w[1].0 <= w[0].0) {
                return Err(SpecError::new("`cc.phases` times must be strictly ascending"));
            }
            Ok(CcSpec::Phases(phases))
        }
        "adaptive" => adaptive_from_value(payload).map(CcSpec::Adaptive),
        other => Err(unknown_key("cc", other, CC_FORMS)),
    }
}

pub(super) fn fault_from_value(v: &Value) -> Result<FaultSpec, SpecError> {
    let mut o = Obj::open(v, "faults[]")?;
    let at_ms = o.req("at", non_negative)?;
    let duration = o.opt("duration", positive)?;
    let repair = o.opt("repair", dist)?;
    let cpus_down = o.req("cpus_down", positive_u32)?;
    o.finish(())?;
    let outage = match (duration, repair) {
        (Some(d), None) => Dist::constant(d),
        (None, Some(dist)) => dist,
        (Some(_), Some(_)) => {
            return Err(SpecError::new(
                "`faults[]` takes `duration` or `repair`, not both",
            ));
        }
        (None, None) => {
            return Err(SpecError::new("`faults[]` needs `duration` or `repair`"));
        }
    };
    Ok(FaultSpec {
        at_ms,
        outage,
        cpus_down,
    })
}

/// The retry policies, each a single-key object.
pub(super) const RETRY: Keys = &["backoff"];

/// Parses the retry policy of a `clients` section; an empty `backoff`
/// is [`RetryPolicy::default`].
pub(super) fn retry_policy_from_value(v: &Value) -> Result<RetryPolicy, SpecError> {
    let (tag, payload) = single_key(v, "clients.retry", RETRY)?;
    match tag {
        "backoff" => {
            let mut o = Obj::open(payload, "clients.retry.backoff")?;
            let d = RetryPolicy::default();
            let policy = RetryPolicy {
                base_ms: o.or("base_ms", positive, d.base_ms)?,
                factor: o.or("factor", at_least_one, d.factor)?,
                max_ms: o.or("max_ms", positive, d.max_ms)?,
                jitter: o.or("jitter", fraction, d.jitter)?,
            };
            o.finish(policy)
        }
        other => Err(unknown_key("clients.retry", other, RETRY)),
    }
}

/// Parses the `clients` section into the engine's [`ClientConfig`].
pub(super) fn clients_from_value(v: &Value) -> Result<ClientConfig, SpecError> {
    let mut o = Obj::open(v, "clients")?;
    let clients = ClientConfig {
        population: o.req("population", positive_u32)?,
        timeout: o.req("timeout", dist)?,
        max_retries: o.or("max_retries", u32_from, 3)?,
        retry: o
            .opt("retry", |v, _| retry_policy_from_value(v))?
            .unwrap_or_default(),
        shed_retries: o.or("shed_retries", boolean, false)?,
    };
    o.finish(clients)
}

/// Characters legal in labels that land in output file names.
pub(super) fn filename_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

fn sweep_axis_from_value(v: &Value) -> Result<SweepAxis, SpecError> {
    let mut o = Obj::open(v, "sweep.axes[]")?;
    let axis = SweepAxis {
        header: o.req("header", nonempty)?,
        path: o.req("path", nonempty)?,
        values: o.req("values", list(|v| Ok(v.clone())))?,
        labels: o.opt(
            "labels",
            list(|l| match l {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(SpecError::new("`sweep.axes[].labels` must be strings")),
            }),
        )?,
    };
    o.finish(())?;
    if axis.values.is_empty() {
        return Err(SpecError::new("`sweep.axes[].values` must not be empty"));
    }
    if let Some(labels) = &axis.labels {
        if labels.len() != axis.values.len() {
            return Err(SpecError::new(format!(
                "axis `{}`: {} labels for {} values",
                axis.header,
                labels.len(),
                axis.values.len()
            )));
        }
    }
    // Labels name output files and must identify cells uniquely: a
    // duplicate label would collapse two grid cells in the report.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..axis.values.len() {
        let label = axis.label(i);
        if !filename_safe(&label) {
            return Err(SpecError::new(format!(
                "axis `{}` label `{label}` must be non-empty [A-Za-z0-9._-] \
                 (give explicit `labels` for exotic values)",
                axis.header
            )));
        }
        if !seen.insert(label.clone()) {
            return Err(SpecError::new(format!(
                "axis `{}` has duplicate label `{label}`",
                axis.header
            )));
        }
    }
    Ok(axis)
}

pub(super) fn sweep_from_value(v: &Value) -> Result<SweepSpec, SpecError> {
    let mut o = Obj::open(v, "sweep")?;
    let sweep = SweepSpec {
        axes: o
            .opt("axes", list(sweep_axis_from_value))?
            .unwrap_or_default(),
        pivot: o.opt("pivot", |v, _| {
            let mut o = Obj::open(v, "sweep.pivot")?;
            let pivot = PivotSpec {
                stat: o.req("stat", |v, at| StatColumn::parse(&string(v, at)?))?,
                prefix: o.opt("prefix", string)?.unwrap_or_default(),
            };
            o.finish(pivot)
        })?,
    };
    o.finish(())?;
    if sweep.axes.is_empty() {
        return Err(SpecError::new("`sweep` needs at least one axis"));
    }
    if sweep.pivot.is_some() && sweep.axes.len() < 2 {
        return Err(SpecError::new(
            "a pivoted sweep needs ≥ 2 axes (rows + the pivoted columns)",
        ));
    }
    let mut headers = std::collections::BTreeSet::new();
    for a in &sweep.axes {
        if !headers.insert(a.header.as_str()) {
            return Err(SpecError::new(format!("duplicate axis header `{}`", a.header)));
        }
    }
    Ok(sweep)
}

/// Parses `inputs`: variant name → cell name → literal cell text.
pub(super) fn inputs_from_value(v: &Value, at: At<'_>) -> Result<VariantInputs, SpecError> {
    let mut out = Vec::new();
    for (variant, cells) in pairs(v, at)? {
        let at = At("inputs", &variant);
        let mut row = Vec::new();
        for (col, val) in pairs(&cells, at)? {
            match val {
                Value::Str(s) => row.push((col, s)),
                _ => {
                    return Err(SpecError::new(format!(
                        "`{at}.{col}` must be a string (the literal cell text)"
                    )));
                }
            }
        }
        out.push((variant, row));
    }
    Ok(out)
}

/// Reads the `workload` section, one profile per field, into the
/// engine's [`WorkloadConfig`] (`trace` files relative to `base_dir`);
/// an omitted field keeps its default.
pub(super) fn workload_from_value(
    v: &Value,
    base_dir: &Path,
) -> Result<WorkloadConfig, SpecError> {
    let profile = |v: &Value, at: At<'_>| {
        schedule_from_value(v, base_dir).map_err(|e| e.context(format!("`{at}`")))
    };
    let mut o = Obj::open(v, "workload")?;
    let d = WorkloadConfig::default();
    let workload = WorkloadConfig {
        k: o.or("k", profile, d.k)?,
        query_frac: o.or("query_frac", profile, d.query_frac)?,
        write_frac: o.or("write_frac", profile, d.write_frac)?,
        access_skew: o.or("access_skew", profile, d.access_skew)?,
        arrival_rate_factor: o.or("arrival_rate_factor", profile, d.arrival_rate_factor)?,
        think_time_factor: o.or("think_time_factor", profile, d.think_time_factor)?,
    };
    checked(o.finish(workload)?, "workload", WorkloadConfig::check)
}

/// The §6 performance indicators, by the name `control.indicator`
/// reads.
pub(super) const INDICATOR: [(&str, PerfIndicator); 4] = [
    ("Throughput", PerfIndicator::Throughput),
    ("InverseResponseTime", PerfIndicator::InverseResponseTime),
    ("EffectiveThroughput", PerfIndicator::EffectiveThroughput),
    ("NegatedConflictRate", PerfIndicator::NegatedConflictRate),
];

/// The displacement victim policies, by the name
/// `control.victim_policy` reads.
pub(super) const VICTIM_POLICY: [(&str, VictimPolicy); 4] = [
    ("Youngest", VictimPolicy::Youngest),
    ("Oldest", VictimPolicy::Oldest),
    ("LeastProgress", VictimPolicy::LeastProgress),
    ("MostProgress", VictimPolicy::MostProgress),
];

/// Reads the `control` section: overrides on [`ControlConfig::default`].
pub(super) fn control_from_value(v: &Value) -> Result<ControlConfig, SpecError> {
    let mut o = Obj::open(v, "control")?;
    let d = ControlConfig::default();
    let control = ControlConfig {
        sample_interval_ms: o.or("sample_interval_ms", number, d.sample_interval_ms)?,
        indicator: o.or("indicator", named(&INDICATOR), d.indicator)?,
        displacement: o.or("displacement", boolean, d.displacement)?,
        victim_policy: o.or("victim_policy", named(&VICTIM_POLICY), d.victim_policy)?,
        initial_bound: o.or("initial_bound", u32_from, d.initial_bound)?,
        warmup_ms: o.or("warmup_ms", number, d.warmup_ms)?,
    };
    checked(o.finish(control)?, "control", ControlConfig::check)
}

pub(super) fn variant_from_value(v: &Value) -> Result<VariantSpec, SpecError> {
    let mut o = Obj::open(v, "variants[]")?;
    let variant = VariantSpec {
        name: o.req("name", string)?,
        set: o.opt("set", pairs)?.unwrap_or_default(),
        quick: o.opt("quick", pairs)?.unwrap_or_default(),
    };
    o.finish(variant)
}

/// Reads the `system` section: overrides on [`SystemConfig::default`],
/// each delay a distribution, under the spec's top-level `seed` (a
/// `system.seed` is refused). `offered_load_per_s` is a *derived*
/// quantity: a value `λ` reads as an open Poisson arrival stream with
/// interarrival mean `1000/λ` ms, so load grids (sweep axes, `--set`,
/// quick overrides) read in the paper's tx/s units instead of
/// interarrival means; it excludes `arrival`.
pub(super) fn system_from_value(v: &Value, seed: u64) -> Result<SystemConfig, SpecError> {
    let mut o = Obj::open(v, "system")?;
    if v.get("seed").is_some() {
        return Err(SpecError::new(
            "set the top-level `seed` field, not `system.seed`",
        ));
    }
    let d = SystemConfig::default();
    let system = SystemConfig {
        terminals: o.or("terminals", u32_from, d.terminals)?,
        arrival: match (
            o.opt("arrival", arrival_process)?,
            o.opt("offered_load_per_s", |v, at| positive(v, at).map(open_rate))?,
        ) {
            (Some(_), Some(_)) => {
                return Err(SpecError::new(
                    "set `system.arrival` or `system.offered_load_per_s`, not both",
                ));
            }
            (given, offered) => given.or(offered).unwrap_or(d.arrival),
        },
        cpus: o.or("cpus", u32_from, d.cpus)?,
        cpu_phase: o.or("cpu_phase", distribution, d.cpu_phase)?,
        disk_access: o.or("disk_access", distribution, d.disk_access)?,
        disk_init_commit: o.or("disk_init_commit", distribution, d.disk_init_commit)?,
        think: o.or("think", distribution, d.think)?,
        restart_delay: o.or("restart_delay", distribution, d.restart_delay)?,
        db_size: o.or("db_size", u64_from, d.db_size)?,
        resample_on_restart: o.or("resample_on_restart", boolean, d.resample_on_restart)?,
        seed,
    };
    checked(o.finish(system)?, "system", SystemConfig::check)
}
