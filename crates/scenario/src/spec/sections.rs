//! The per-section parsers of a spec.

use alc_core::controller::{
    HybridParams, IsParams, IyerRuleParams, OuterParams, PaOuterParams, PaParams,
    RetryBudgetParams,
};
use alc_core::meta::LadderSignal;
use alc_tpsim::client::{ClientConfig, LatencyFeedback, RetryPolicy};
use alc_tpsim::config::{CcKind, SystemConfig};
use serde::Value;

use super::{
    cc_spec_name, AdaptiveCcSpec, ControllerSpec, FaultRecovery, FaultSpec, MetaPolicySpec,
    PivotSpec, StatColumn, SweepAxis, SweepSpec, VariantInputs, VariantSpec, WorkloadSpec,
};
use crate::profile::Profile;
use crate::value_util::{
    at_least_one, boolean, fraction, list, non_negative, nonempty, normalize_arrival,
    normalize_dist, number, pairs, params, positive, positive_u32, single_key, strict, string,
    timed, u32_from, u64_from, unknown_key, weight, At, Keys, Obj,
};
use crate::SpecError;

/// Parses a CC protocol: canonical variant names plus the CLI aliases.
pub(super) fn cc_from_value(v: &Value) -> Result<CcKind, SpecError> {
    if let Value::Str(s) = v {
        let alias = match s.as_str() {
            "certification" | "cert" | "occ" => Some(CcKind::Certification),
            "2pl" | "two-phase-locking" => Some(CcKind::TwoPhaseLocking),
            "timestamp-ordering" | "to" => Some(CcKind::TimestampOrdering),
            "wound-wait" => Some(CcKind::WoundWait),
            "wait-die" => Some(CcKind::WaitDie),
            "mvto" | "multiversion" => Some(CcKind::Multiversion),
            _ => None,
        };
        if let Some(cc) = alias {
            return Ok(cc);
        }
    }
    <CcKind as serde::Deserialize>::from_value(v)
        .map_err(|e| SpecError::new(format!("invalid `cc`: {e}")))
}

/// Parses a distribution (shorthands allowed) whose mean must be
/// positive: an outage length, a client's patience.
fn dist(v: &Value, at: At<'_>) -> Result<alc_des::dist::Dist, SpecError> {
    use alc_des::dist::Sample as _;
    let d: alc_des::dist::Dist = normalize_dist(v)
        .and_then(|norm| strict(&norm, "distribution"))
        .map_err(|e| e.context(at))?;
    if d.mean().is_nan() || d.mean() <= 0.0 {
        return Err(SpecError::new(format!(
            "`{at}` needs a distribution with positive mean"
        )));
    }
    Ok(d)
}

/// The controller kinds written as single-key objects.
const CONTROLLER: Keys = &[
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
fn checked<T>(p: T, at: At<'_>, check: fn(&T) -> Result<(), String>) -> Result<T, SpecError> {
    check(&p).map_err(|e| SpecError::new(format!("{at}.{e}")))?;
    Ok(p)
}

pub(super) fn controller_from_value(v: &Value) -> Result<ControllerSpec, SpecError> {
    if let Value::Str(s) = v {
        return match s.as_str() {
            "none" => Ok(ControllerSpec::None),
            "unlimited" => Ok(ControllerSpec::Unlimited),
            other => Err(SpecError::new(format!(
                "unknown controller `{other}` (want none/unlimited or an object)"
            ))),
        };
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
                at_ms: o.opt("at_ms", number)?.unwrap_or(0.0),
                n_max: o.req("n_max", positive_u32)?,
            };
            o.finish(c)?
        }
        "is" => ControllerSpec::Is(checked(params(payload, at)?, at, IsParams::check)?),
        "pa" => ControllerSpec::Pa(checked(params(payload, at)?, at, PaParams::check)?),
        "self_tuning_is" => {
            let mut o = Obj::open(payload, &section)?;
            let is = o.opt("is", params)?.unwrap_or_default();
            let outer = o.opt("outer", params)?.unwrap_or_default();
            o.finish(())?;
            ControllerSpec::SelfTuningIs {
                is: checked(is, At(&section, "is"), IsParams::check)?,
                outer: checked(outer, At(&section, "outer"), OuterParams::check)?,
            }
        }
        "self_tuning_pa" => {
            let mut o = Obj::open(payload, &section)?;
            let pa = o.opt("pa", params)?.unwrap_or_default();
            let outer = o.opt("outer", params)?.unwrap_or_default();
            o.finish(())?;
            ControllerSpec::SelfTuningPa {
                pa: checked(pa, At(&section, "pa"), PaParams::check)?,
                outer: checked(outer, At(&section, "outer"), PaOuterParams::check)?,
            }
        }
        "hybrid" => {
            let mut o = Obj::open(payload, &section)?;
            let d = HybridParams::default();
            let p = HybridParams {
                is: o.opt("is", params)?.unwrap_or(d.is),
                pa: o.opt("pa", params)?.unwrap_or(d.pa),
                bootstrap_samples: o
                    .opt("bootstrap_samples", u64_from)?
                    .unwrap_or(d.bootstrap_samples),
                revert_after: o.opt("revert_after", u32_from)?.unwrap_or(d.revert_after),
                revert_window: o.opt("revert_window", u32_from)?.unwrap_or(d.revert_window),
            };
            o.finish(())?;
            ControllerSpec::Hybrid(checked(p, at, HybridParams::check)?)
        }
        "iyer" => ControllerSpec::Iyer(checked(params(payload, at)?, at, IyerRuleParams::check)?),
        "retry_budget" => {
            let p = params(payload, at)?;
            ControllerSpec::RetryBudget(checked(p, at, RetryBudgetParams::check)?)
        }
        // Tay's rule also reads `system.db_size`: `build_variant` asks
        // `TayRule::check` once the system is known.
        "tay" => {
            let mut o = Obj::open(payload, &section)?;
            let c = ControllerSpec::Tay {
                k: o.req("k", positive_u32)?,
                min_bound: o.opt("min_bound", u32_from)?.unwrap_or(1),
                max_bound: o.req("max_bound", u32_from)?,
            };
            o.finish(c)?
        }
        other => return Err(unknown_key("controller", other, CONTROLLER)),
    })
}

/// The adaptive-`cc` policies, each a single-key object.
const POLICY: Keys = &["conflict_threshold", "restart_rate", "shadow_score"];

/// Parses the policy object of an adaptive `cc` section (its ranges are
/// the policy's own `check`, asked once the whole section is read).
fn meta_policy_from_value(v: &Value) -> Result<MetaPolicySpec, SpecError> {
    let (tag, payload) = single_key(v, "cc.adaptive.policy", POLICY)?;
    let ewma = |o: &mut Obj<'_>| o.opt("ewma_weight", number).map(|w| w.unwrap_or(0.3));
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
        min_dwell_s: o.req("min_dwell_s", non_negative)?,
        cooldown_s: o.opt("cooldown_s", non_negative)?.unwrap_or(0.0),
        hysteresis: o.opt("hysteresis", number)?.unwrap_or(0.25),
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

/// The parsed `cc` field: initial protocol, scheduled phase switches,
/// and the adaptive section (at most one of the latter two is
/// populated).
type CcField = (CcKind, Vec<(f64, CcKind)>, Option<AdaptiveCcSpec>);

/// Parses the `cc` field: a plain protocol,
/// `{"phases": [[t_ms, cc], …]}` (ascending, first phase at 0) for
/// scheduled per-phase switching, or `{"adaptive": …}` for closed-loop
/// protocol selection.
pub(super) fn cc_field_from_value(v: &Value) -> Result<CcField, SpecError> {
    if let Some([(tag, payload)]) = v.as_map() {
        if tag == "adaptive" {
            let adaptive = adaptive_from_value(payload)?;
            return Ok((adaptive.candidates[0], Vec::new(), Some(adaptive)));
        }
        if tag == "phases" {
            let mut phases = timed(payload, "cc.phases", cc_from_value)?;
            if phases.is_empty() {
                return Err(SpecError::new("`cc.phases` must not be empty"));
            }
            if phases[0].0 != 0.0 {
                return Err(SpecError::new("the first `cc.phases` entry must start at 0"));
            }
            for w in phases.windows(2) {
                if w[1].0 <= w[0].0 {
                    return Err(SpecError::new("`cc.phases` times must be strictly ascending"));
                }
            }
            let initial = phases[0].1;
            return Ok((initial, phases.split_off(1), None));
        }
    }
    Ok((cc_from_value(v)?, Vec::new(), None))
}

pub(super) fn fault_from_value(v: &Value) -> Result<FaultSpec, SpecError> {
    let mut o = Obj::open(v, "faults[]")?;
    let at_ms = o.req("at", non_negative)?;
    let duration = o.opt("duration", positive)?;
    let repair = o.opt("repair", dist)?;
    let cpus_down = o.req("cpus_down", positive_u32)?;
    o.finish(())?;
    let recovery = match (duration, repair) {
        (Some(d), None) => FaultRecovery::Fixed(d),
        (None, Some(dist)) => FaultRecovery::Repair(dist),
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
        recovery,
        cpus_down,
    })
}

/// The retry policies, each a single-key object.
const RETRY: Keys = &["backoff", "budget", "hedged"];

/// Parses the retry policy of a `clients` section; an empty `backoff`
/// is [`RetryPolicy::default`].
pub(super) fn retry_policy_from_value(v: &Value) -> Result<RetryPolicy, SpecError> {
    let (tag, payload) = single_key(v, "clients.retry", RETRY)?;
    match tag {
        "backoff" => {
            let mut o = Obj::open(payload, tag)?;
            let policy = RetryPolicy::Backoff {
                base_ms: o.opt("base_ms", positive)?.unwrap_or(100.0),
                factor: o.opt("factor", at_least_one)?.unwrap_or(2.0),
                max_ms: o.opt("max_ms", positive)?.unwrap_or(5000.0),
                jitter: o.opt("jitter", fraction)?.unwrap_or(0.5),
            };
            o.finish(policy)
        }
        "budget" => {
            let mut o = Obj::open(payload, tag)?;
            let policy = RetryPolicy::Budget {
                per_commit: o.opt("per_commit", non_negative)?.unwrap_or(0.1),
                burst: o.opt("burst", positive)?.unwrap_or(10.0),
                delay_ms: o.opt("delay_ms", positive)?.unwrap_or(100.0),
            };
            o.finish(policy)
        }
        "hedged" => {
            let mut o = Obj::open(payload, tag)?;
            let delay_ms = o.req("delay_ms", positive)?;
            o.finish(RetryPolicy::Hedged { delay_ms })
        }
        other => Err(unknown_key("clients.retry", other, RETRY)),
    }
}

/// Parses the latency→load feedback of a `clients` section.
fn feedback_from_value(v: &Value) -> Result<LatencyFeedback, SpecError> {
    let mut o = Obj::open(v, "clients.feedback")?;
    let d = LatencyFeedback::default();
    let feedback = LatencyFeedback {
        gain: o.opt("gain", non_negative)?.unwrap_or(d.gain),
        reference_ms: o.opt("reference_ms", positive)?.unwrap_or(d.reference_ms),
        weight: o.opt("weight", weight)?.unwrap_or(d.weight),
    };
    o.finish(feedback)
}

/// Parses the `clients` section into the engine's [`ClientConfig`].
pub(super) fn clients_from_value(v: &Value) -> Result<ClientConfig, SpecError> {
    let mut o = Obj::open(v, "clients")?;
    let clients = ClientConfig {
        population: o.req("population", positive_u32)?,
        timeout: o.req("timeout", dist)?,
        max_retries: o.opt("max_retries", u32_from)?.unwrap_or(3),
        retry: o
            .opt("retry", |v, _| retry_policy_from_value(v))?
            .unwrap_or_default(),
        shed_retries: o.opt("shed_retries", boolean)?.unwrap_or(false),
        feedback: o
            .opt("feedback", |v, _| feedback_from_value(v))?
            .unwrap_or_default(),
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

pub(super) fn workload_from_value(v: &Value) -> Result<WorkloadSpec, SpecError> {
    let profile = |v: &Value, at: At<'_>| {
        <Profile as serde::Deserialize>::from_value(v)
            .map_err(|e| SpecError::new(format!("`{at}`: {e}")))
    };
    let mut o = Obj::open(v, "workload")?;
    let d = WorkloadSpec::default();
    let workload = WorkloadSpec {
        k: o.opt("k", profile)?.unwrap_or(d.k),
        query_frac: o.opt("query_frac", profile)?.unwrap_or(d.query_frac),
        write_frac: o.opt("write_frac", profile)?.unwrap_or(d.write_frac),
        access_skew: o.opt("access_skew", profile)?.unwrap_or(d.access_skew),
        arrival_rate_factor: o
            .opt("arrival_rate_factor", profile)?
            .unwrap_or(d.arrival_rate_factor),
        think_time_factor: o
            .opt("think_time_factor", profile)?
            .unwrap_or(d.think_time_factor),
    };
    o.finish(workload)
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

/// Normalizes the `system` override map: dist-valued fields accept the
/// shorthands, `arrival` accepts its shorthands, and `seed` is rejected
/// (the top-level `seed` field owns it). `offered_load_per_s` is a
/// *derived* quantity: a value `λ` lowers to an open Poisson arrival
/// stream with interarrival mean `1000/λ` ms at parse time, so load
/// grids (sweep axes, `--set`, quick overrides) read in the paper's
/// tx/s units instead of interarrival means. Any other key must be a
/// field of [`SystemConfig`].
pub(super) fn system_overrides_from_value(
    v: &Value,
    at: At<'_>,
) -> Result<Vec<(String, Value)>, SpecError> {
    const DIST_FIELDS: [&str; 5] = [
        "cpu_phase",
        "disk_access",
        "disk_init_commit",
        "think",
        "restart_delay",
    ];
    let Value::Map(fields) = serde::Serialize::to_value(&SystemConfig::default()) else {
        // alc-lint: allow(panic-in-lib, reason="SystemConfig is a struct, which serializes to a map")
        unreachable!("SystemConfig serializes to a map");
    };
    let mut out: Vec<(String, Value)> = Vec::new();
    let mut arrival_sources = 0u32;
    for (k, val) in pairs(v, at)? {
        if k != "offered_load_per_s" && !fields.iter().any(|(f, _)| *f == k) {
            let known = fields.iter().map(|(f, _)| f.as_str()).filter(|f| *f != "seed");
            return Err(unknown_key("system", &k, known.chain(["offered_load_per_s"])));
        }
        let (key, norm) = if DIST_FIELDS.contains(&k.as_str()) {
            let norm = normalize_dist(&val)
                .map_err(|e| SpecError::new(format!("system `{k}`: {e}")))?;
            (k, norm)
        } else if k == "arrival" {
            arrival_sources += 1;
            (k, normalize_arrival(&val)?)
        } else if k == "offered_load_per_s" {
            arrival_sources += 1;
            let rate = positive(&val, At("system", &k))?;
            let open = Value::Map(vec![("open_rate_per_s".into(), Value::Num(rate))]);
            ("arrival".to_string(), normalize_arrival(&open)?)
        } else if k == "seed" {
            return Err(SpecError::new(
                "set the top-level `seed` field, not `system.seed`",
            ));
        } else {
            (k, val)
        };
        out.push((key, norm));
    }
    if arrival_sources > 1 {
        return Err(SpecError::new(
            "set `system.arrival` or `system.offered_load_per_s`, not both",
        ));
    }
    Ok(out)
}
