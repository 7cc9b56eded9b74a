//! The time-varying profile DSL.
//!
//! Every workload parameter in a scenario spec — `k`, the mix fractions,
//! the access skew, the arrival-rate and think-time factors — is a
//! *profile*: a declarative description of how the value moves over
//! simulated time. Profiles compose the vocabulary the nonstationary
//! experiments of §8/§9 (and the related self-* overload-control work)
//! need: steps, ramps, sinusoids, bursts (flash crowds / fault surges),
//! replayed traces, and phase lists gluing any of those together.
//!
//! [`schedule_from_value`] reads a profile straight into the engine's
//! [`alc_analytic::surface::Schedule`]: a `step` is a
//! [`Schedule::Jump`], a `burst` and a `trace` are
//! [`Schedule::Piecewise`] lists, and a phase list is a
//! [`Schedule::Profile`], whose segments evaluate their inner shape in
//! phase-local time, so `{"phases": [[0, 8], [600000, {"ramp": …}]]}`
//! behaves the same wherever the phase boundary sits. The reader holds
//! each shape's own rules (a ramp ends after it starts, a period and a
//! burst are positive, times ascend); the range a value must keep is its
//! field's, [`alc_tpsim::workload::WorkloadConfig::check`].
//!
//! # JSON forms
//!
//! ```json
//! 8.0
//! {"step": {"at": 1000000, "before": 8, "after": 16}}
//! {"ramp": {"from": 8, "to": 16, "t_start": 0, "t_end": 60000}}
//! {"sinusoid": {"mean": 10, "amplitude": 4, "period": 600000}}
//! {"burst": {"base": 1, "peak": 4, "at": 300000, "duration": 60000}}
//! {"piecewise": [[0, 6], [150000, 18]]}
//! {"trace": "traces/daily-load.jsonl"}
//! {"phases": [[0, 8], [600000, {"sinusoid": {"mean": 10, "amplitude": 4, "period": 200000}}]]}
//! ```

use std::path::Path;

use alc_analytic::surface::Schedule;
use alc_runtime::{read_jsonl, JsonlError};
use serde::Value;

use crate::value_util::{number, single_key, string, timed, unknown_key, At, Keys, Obj};
use crate::SpecError;

/// The profile shapes written as single-key objects.
pub(crate) const PROFILE: Keys = &[
    "step",
    "ramp",
    "sinusoid",
    "burst",
    "piecewise",
    "trace",
    "phases",
];

/// Reads a profile (see the module docs for the JSON forms) into the
/// engine's [`Schedule`], reading a `trace` file relative to `base_dir`,
/// the spec's directory.
pub fn schedule_from_value(value: &Value, base_dir: &Path) -> Result<Schedule, SpecError> {
    if let Some(v) = value.as_f64() {
        return Ok(Schedule::Constant(v));
    }
    let (tag, payload) = single_key(value, "profile", PROFILE)
        .map_err(|e| e.context("a profile is a number, or"))?;
    let at = At("profile", tag);
    Ok(match tag {
        "step" => {
            let mut o = Obj::open(payload, tag)?;
            let s = Schedule::Jump {
                at: o.req("at", number)?,
                before: o.req("before", number)?,
                after: o.req("after", number)?,
            };
            o.finish(s)?
        }
        "ramp" => {
            let mut o = Obj::open(payload, tag)?;
            let (from, to) = (o.req("from", number)?, o.req("to", number)?);
            let (t_start, t_end) = (o.req("t_start", number)?, o.req("t_end", number)?);
            o.finish(())?;
            if t_end <= t_start {
                return Err(SpecError::new(format!(
                    "ramp t_end ({t_end}) must exceed t_start ({t_start})"
                )));
            }
            Schedule::Ramp {
                from,
                to,
                t_start,
                t_end,
            }
        }
        "sinusoid" => {
            let mut o = Obj::open(payload, tag)?;
            let (mean, amplitude) = (o.req("mean", number)?, o.req("amplitude", number)?);
            let period = o.req("period", number)?;
            o.finish(())?;
            if period <= 0.0 {
                return Err(SpecError::new("sinusoid period must be positive"));
            }
            Schedule::Sinusoid {
                mean,
                amplitude,
                period,
            }
        }
        "burst" => {
            let mut o = Obj::open(payload, tag)?;
            let (base, peak) = (o.req("base", number)?, o.req("peak", number)?);
            let (at, duration) = (o.req("at", number)?, o.req("duration", number)?);
            o.finish(())?;
            if duration <= 0.0 {
                return Err(SpecError::new("burst duration must be positive"));
            }
            Schedule::Piecewise(vec![(0.0, base), (at, peak), (at + duration, base)])
        }
        "piecewise" => {
            ascending(timed(payload, tag, |v| number(v, at))?, tag).map(Schedule::Piecewise)?
        }
        "trace" => read_trace(&string(payload, at)?, base_dir)?,
        "phases" => {
            let phases = timed(payload, tag, |inner| {
                schedule_from_value(inner, base_dir).map_err(|e| e.context("in `phases`"))
            })?;
            ascending(phases, tag).map(Schedule::Profile)?
        }
        other => return Err(unknown_key("profile", other, PROFILE)),
    })
}

/// One line of a `trace` profile.
struct TracePoint {
    t_ms: f64,
    value: f64,
}

impl TracePoint {
    /// Reads `{"t_ms": …, "value": …}`, strictly.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let mut o = serde::Obj::open(v, "TracePoint")?;
        let point = TracePoint {
            t_ms: o.f64("t_ms")?,
            value: o.f64("value")?,
        };
        o.finish()?;
        Ok(point)
    }
}

/// Reads a JSONL trace (one `{"t_ms": …, "value": …}` per line,
/// ascending times) at `path` under `base_dir` as a sample-and-hold
/// list.
fn read_trace(path: &str, base_dir: &Path) -> Result<Schedule, SpecError> {
    let full = base_dir.join(path);
    let cannot_read =
        |e: std::io::Error| SpecError::new(format!("cannot read trace `{}`: {e}", full.display()));
    let file = std::fs::File::open(&full).map_err(cannot_read)?;
    let mut points = Vec::new();
    read_jsonl(std::io::BufReader::new(file), |_, v| {
        let p = TracePoint::from_value(v)?;
        points.push((p.t_ms, p.value));
        Ok(())
    })
    .map_err(|e| match e {
        JsonlError::Io(e) => cannot_read(e),
        JsonlError::Parse(line, e) => SpecError::new(format!("trace `{path}` line {line}: {e}")),
    })?;
    if points.is_empty() {
        return Err(SpecError::new(format!("trace `{path}` is empty")));
    }
    ascending(points, path).map(Schedule::Piecewise)
}

/// `timed` if its times ascend, else the error naming `what`.
fn ascending<T>(timed: Vec<(f64, T)>, what: &str) -> Result<Vec<(f64, T)>, SpecError> {
    let mut last = f64::NEG_INFINITY;
    for &(t, _) in &timed {
        if t < last {
            return Err(SpecError::new(format!(
                "`{what}` times must be ascending (saw {t} after {last})"
            )));
        }
        last = t;
    }
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(json: &str) -> Result<Schedule, SpecError> {
        schedule_from_value(&serde_json::from_str(json).unwrap(), Path::new("."))
    }

    /// One JSON literal per shape, as a user writes it, against the
    /// schedule it must read as; the tree survives its own text form.
    #[test]
    fn profiles_round_trip() {
        let sinusoid = Schedule::Sinusoid {
            mean: 10.0,
            amplitude: 4.0,
            period: 1000.0,
        };
        for (json, want) in [
            ("8.0", Schedule::Constant(8.0)),
            (
                r#"{"step": {"at": 1e6, "before": 8, "after": 16}}"#,
                Schedule::Jump {
                    at: 1e6,
                    before: 8.0,
                    after: 16.0,
                },
            ),
            (
                r#"{"ramp": {"from": 0, "to": 1, "t_start": 10, "t_end": 20}}"#,
                Schedule::Ramp {
                    from: 0.0,
                    to: 1.0,
                    t_start: 10.0,
                    t_end: 20.0,
                },
            ),
            (
                r#"{"sinusoid": {"mean": 10, "amplitude": 4, "period": 1000}}"#,
                sinusoid.clone(),
            ),
            (
                r#"{"burst": {"base": 1, "peak": 4, "at": 100, "duration": 50}}"#,
                Schedule::Piecewise(vec![(0.0, 1.0), (100.0, 4.0), (150.0, 1.0)]),
            ),
            (
                r#"{"piecewise": [[0, 6], [10, 18.5]]}"#,
                Schedule::Piecewise(vec![(0.0, 6.0), (10.0, 18.5)]),
            ),
            (
                r#"{"phases": [[0, 8], [100, {"sinusoid":
                    {"mean": 10, "amplitude": 4, "period": 1000}}]]}"#,
                Schedule::Profile(vec![
                    (0.0, Schedule::Constant(8.0)),
                    (100.0, sinusoid.clone()),
                ]),
            ),
        ] {
            assert_eq!(read(json).unwrap(), want, "{json}");
            let tree: Value = serde_json::from_str(json).unwrap();
            let text = serde_json::to_string(&tree);
            let back: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(back, tree, "round trip changed {json}");
        }
    }

    #[test]
    fn burst_lowers_to_square_pulse() {
        let s = read(r#"{"burst": {"base": 1, "peak": 3, "at": 100, "duration": 50}}"#).unwrap();
        assert_eq!(s.value(0.0), 1.0);
        assert_eq!(s.value(100.0), 3.0);
        assert_eq!(s.value(149.0), 3.0);
        assert_eq!(s.value(150.0), 1.0);
    }

    #[test]
    fn phases_lower_to_schedule_profile() {
        let s = read(
            r#"{"phases": [[0, 8], [100, {"ramp":
                {"from": 8, "to": 16, "t_start": 0, "t_end": 50}}]]}"#,
        )
        .unwrap();
        assert!(matches!(s, Schedule::Profile(_)), "{s:?}");
        assert_eq!(s.value(50.0), 8.0);
        assert_eq!(s.value(125.0), 12.0); // ramp midpoint in local time
        assert_eq!(s.value(200.0), 16.0);
    }

    #[test]
    fn trace_lowering_reads_jsonl() {
        let dir = std::env::temp_dir().join("alc_scenario_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("t.jsonl"),
            "{\"t_ms\":0,\"value\":1.0}\n{\"t_ms\":100,\"value\":2.5}\n",
        )
        .unwrap();
        let trace = |path: &str| {
            let tree = Value::Map(vec![("trace".into(), Value::Str(path.into()))]);
            schedule_from_value(&tree, &dir)
        };
        let s = trace("t.jsonl").unwrap();
        assert_eq!(s, Schedule::Piecewise(vec![(0.0, 1.0), (100.0, 2.5)]));
        // Missing file is a spec error, not a panic.
        assert!(trace("missing.jsonl").is_err());
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        for (json, names) in [
            (r#"{"nope": 1}"#, "`profile` key `nope`"),
            (
                r#"{"ramp": {"from": 0, "to": 1, "t_start": 10, "t_end": 10}}"#,
                "ramp t_end (10) must exceed t_start (10)",
            ),
            (
                r#"{"sinusoid": {"mean": 1, "amplitude": 1, "period": 0}}"#,
                "period",
            ),
            (
                r#"{"burst": {"base": 1, "peak": 2, "at": 5, "duration": 0}}"#,
                "duration",
            ),
            (
                r#"{"piecewise": [[10, 1], [0, 2]]}"#,
                "`piecewise` times must be ascending",
            ),
            (
                r#"{"phases": [[10, 1], [0, 2]]}"#,
                "`phases` times must be ascending",
            ),
        ] {
            let err = read(json).expect_err(json).to_string();
            assert!(err.contains(names), "{json}: {err}");
        }
    }
}
