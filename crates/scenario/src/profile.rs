//! The time-varying profile DSL.
//!
//! Every workload parameter in a scenario spec — `k`, the mix fractions,
//! the access skew, the arrival-rate and think-time factors — is a
//! [`Profile`]: a declarative description of how the value moves over
//! simulated time. Profiles compose the vocabulary the nonstationary
//! experiments of §8/§9 (and the related self-* overload-control work)
//! need: steps, ramps, sinusoids, bursts (flash crowds / fault surges),
//! replayed traces, and phase lists gluing any of those together.
//!
//! A profile *lowers* into an [`alc_analytic::surface::Schedule`] — the
//! engine-side representation — via [`Profile::lower`]. Phase lists
//! lower to [`Schedule::Profile`], whose segments evaluate their inner
//! shape in phase-local time, so `{"phases": [[0, 8], [600000,
//! {"ramp": …}]]}` behaves the same wherever the phase boundary sits.
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
use serde::{Deserialize as _, Value};

use crate::value_util::{number, single_key, string, timed, unknown_key, At, Keys, Obj};
use crate::SpecError;

/// A declarative time-varying value (see the module docs for the JSON
/// forms).
#[derive(Debug, Clone, PartialEq)]
pub enum Profile {
    /// The same value forever.
    Constant(f64),
    /// Abrupt jump at `at`: the §8 "jump-like variation".
    Step {
        /// Time of the step, ms.
        at: f64,
        /// Value before the step.
        before: f64,
        /// Value from the step on.
        after: f64,
    },
    /// Linear drift from `from` (at `t_start`) to `to` (at `t_end`).
    Ramp {
        /// Value before the ramp starts.
        from: f64,
        /// Value after the ramp ends.
        to: f64,
        /// Ramp start, ms.
        t_start: f64,
        /// Ramp end, ms.
        t_end: f64,
    },
    /// `mean + amplitude·sin(2πt/period)`: the §9 gradual variation.
    Sinusoid {
        /// Mid value.
        mean: f64,
        /// Peak deviation.
        amplitude: f64,
        /// Period, ms.
        period: f64,
    },
    /// A square surge: `base` except `peak` during `[at, at+duration)` —
    /// the flash-crowd / fault-event primitive.
    Burst {
        /// Baseline value.
        base: f64,
        /// Value during the burst window.
        peak: f64,
        /// Burst start, ms.
        at: f64,
        /// Burst length, ms.
        duration: f64,
    },
    /// Sample-and-hold over explicit `(t_ms, value)` breakpoints.
    Piecewise(Vec<(f64, f64)>),
    /// Replay of a JSONL trace file (one `{"t_ms": …, "value": …}` per
    /// line, ascending times), resolved relative to the spec file.
    Trace {
        /// Path of the trace file, relative to the spec.
        path: String,
    },
    /// Ordered phases: each `(start_ms, profile)` governs from its start
    /// until the next phase, with the inner profile evaluated in
    /// phase-local time.
    Phases(Vec<(f64, Profile)>),
}

impl Profile {
    /// Lowers the profile into the engine's [`Schedule`] representation,
    /// reading trace files relative to `base_dir`.
    pub fn lower(&self, base_dir: &Path) -> Result<Schedule, SpecError> {
        Ok(match self {
            Profile::Constant(v) => Schedule::Constant(*v),
            Profile::Step { at, before, after } => Schedule::Jump {
                at: *at,
                before: *before,
                after: *after,
            },
            Profile::Ramp {
                from,
                to,
                t_start,
                t_end,
            } => {
                if t_end <= t_start {
                    return Err(SpecError::new(format!(
                        "ramp t_end ({t_end}) must exceed t_start ({t_start})"
                    )));
                }
                Schedule::Ramp {
                    from: *from,
                    to: *to,
                    t_start: *t_start,
                    t_end: *t_end,
                }
            }
            Profile::Sinusoid {
                mean,
                amplitude,
                period,
            } => {
                if *period <= 0.0 {
                    return Err(SpecError::new("sinusoid period must be positive"));
                }
                Schedule::Sinusoid {
                    mean: *mean,
                    amplitude: *amplitude,
                    period: *period,
                }
            }
            Profile::Burst {
                base,
                peak,
                at,
                duration,
            } => {
                if *duration <= 0.0 {
                    return Err(SpecError::new("burst duration must be positive"));
                }
                Schedule::Piecewise(vec![(0.0, *base), (*at, *peak), (at + duration, *base)])
            }
            Profile::Piecewise(points) => {
                ensure_ascending(points.iter().map(|&(t, _)| t), "piecewise")?;
                Schedule::Piecewise(points.clone())
            }
            Profile::Trace { path } => {
                let full = base_dir.join(path);
                let cannot_read = |e: std::io::Error| {
                    SpecError::new(format!("cannot read trace `{}`: {e}", full.display()))
                };
                let file = std::fs::File::open(&full).map_err(cannot_read)?;
                let mut points = Vec::new();
                read_jsonl(std::io::BufReader::new(file), |_, v| {
                    let p = TracePoint::from_value(v)?;
                    points.push((p.t_ms, p.value));
                    Ok(())
                })
                .map_err(|e| match e {
                    JsonlError::Io(e) => cannot_read(e),
                    JsonlError::Parse(line, e) => {
                        SpecError::new(format!("trace `{path}` line {line}: {e}"))
                    }
                })?;
                if points.is_empty() {
                    return Err(SpecError::new(format!("trace `{path}` is empty")));
                }
                ensure_ascending(points.iter().map(|&(t, _)| t), path)?;
                Schedule::Piecewise(points)
            }
            Profile::Phases(phases) => {
                if phases.is_empty() {
                    return Err(SpecError::new("phases list must not be empty"));
                }
                ensure_ascending(phases.iter().map(|&(t, _)| t), "phases")?;
                let mut segments = Vec::with_capacity(phases.len());
                for (start, inner) in phases {
                    segments.push((*start, inner.lower(base_dir)?));
                }
                Schedule::Profile(segments)
            }
        })
    }
}

#[derive(serde::Deserialize)]
struct TracePoint {
    t_ms: f64,
    value: f64,
}

fn ensure_ascending(
    times: impl Iterator<Item = f64>,
    what: &str,
) -> Result<(), SpecError> {
    let mut last = f64::NEG_INFINITY;
    for t in times {
        if t < last {
            return Err(SpecError::new(format!(
                "`{what}` times must be ascending (saw {t} after {last})"
            )));
        }
        last = t;
    }
    Ok(())
}

impl<'de> serde::Deserialize<'de> for Profile {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        profile_from_value(value).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

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

fn profile_from_value(value: &Value) -> Result<Profile, SpecError> {
    if let Some(v) = value.as_f64() {
        return Ok(Profile::Constant(v));
    }
    let (tag, payload) = single_key(value, "profile", PROFILE)
        .map_err(|e| e.context("a profile is a number, or"))?;
    let at = At("profile", tag);
    Ok(match tag {
        "step" => {
            let mut o = Obj::open(payload, tag)?;
            let p = Profile::Step {
                at: o.req("at", number)?,
                before: o.req("before", number)?,
                after: o.req("after", number)?,
            };
            o.finish(p)?
        }
        "ramp" => {
            let mut o = Obj::open(payload, tag)?;
            let p = Profile::Ramp {
                from: o.req("from", number)?,
                to: o.req("to", number)?,
                t_start: o.req("t_start", number)?,
                t_end: o.req("t_end", number)?,
            };
            o.finish(p)?
        }
        "sinusoid" => {
            let mut o = Obj::open(payload, tag)?;
            let p = Profile::Sinusoid {
                mean: o.req("mean", number)?,
                amplitude: o.req("amplitude", number)?,
                period: o.req("period", number)?,
            };
            o.finish(p)?
        }
        "burst" => {
            let mut o = Obj::open(payload, tag)?;
            let p = Profile::Burst {
                base: o.req("base", number)?,
                peak: o.req("peak", number)?,
                at: o.req("at", number)?,
                duration: o.req("duration", number)?,
            };
            o.finish(p)?
        }
        "piecewise" => Profile::Piecewise(timed(payload, tag, |v| number(v, at))?),
        "trace" => Profile::Trace {
            path: string(payload, at)?,
        },
        "phases" => Profile::Phases(timed(payload, tag, |inner| {
            profile_from_value(inner).map_err(|e| e.context("in `phases`"))
        })?),
        other => return Err(unknown_key("profile", other, PROFILE)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// One JSON literal per shape, as a user writes it, against the
    /// value it must parse to; the tree survives its own text form.
    #[test]
    fn profiles_round_trip() {
        let sinusoid = Profile::Sinusoid {
            mean: 10.0,
            amplitude: 4.0,
            period: 1000.0,
        };
        for (json, want) in [
            ("8.0", Profile::Constant(8.0)),
            (
                r#"{"step": {"at": 1e6, "before": 8, "after": 16}}"#,
                Profile::Step {
                    at: 1e6,
                    before: 8.0,
                    after: 16.0,
                },
            ),
            (
                r#"{"ramp": {"from": 0, "to": 1, "t_start": 10, "t_end": 20}}"#,
                Profile::Ramp {
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
                Profile::Burst {
                    base: 1.0,
                    peak: 4.0,
                    at: 100.0,
                    duration: 50.0,
                },
            ),
            (
                r#"{"piecewise": [[0, 6], [10, 18.5]]}"#,
                Profile::Piecewise(vec![(0.0, 6.0), (10.0, 18.5)]),
            ),
            (
                r#"{"trace": "traces/x.jsonl"}"#,
                Profile::Trace {
                    path: "traces/x.jsonl".into(),
                },
            ),
            (
                r#"{"phases": [[0, 8], [100, {"sinusoid":
                    {"mean": 10, "amplitude": 4, "period": 1000}}]]}"#,
                Profile::Phases(vec![(0.0, Profile::Constant(8.0)), (100.0, sinusoid.clone())]),
            ),
        ] {
            let tree: Value = serde_json::from_str(json).unwrap();
            assert_eq!(profile_from_value(&tree).unwrap(), want, "{json}");
            let text = serde_json::to_string(&tree).unwrap();
            let back: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(back, tree, "round trip changed {json}");
        }
    }

    #[test]
    fn burst_lowers_to_square_pulse() {
        let p = Profile::Burst {
            base: 1.0,
            peak: 3.0,
            at: 100.0,
            duration: 50.0,
        };
        let s = p.lower(&PathBuf::from(".")).unwrap();
        assert_eq!(s.value(0.0), 1.0);
        assert_eq!(s.value(100.0), 3.0);
        assert_eq!(s.value(149.0), 3.0);
        assert_eq!(s.value(150.0), 1.0);
    }

    #[test]
    fn phases_lower_to_schedule_profile() {
        let p = Profile::Phases(vec![
            (0.0, Profile::Constant(8.0)),
            (
                100.0,
                Profile::Ramp {
                    from: 8.0,
                    to: 16.0,
                    t_start: 0.0,
                    t_end: 50.0,
                },
            ),
        ]);
        let s = p.lower(&PathBuf::from(".")).unwrap();
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
        let p = Profile::Trace {
            path: "t.jsonl".into(),
        };
        let s = p.lower(&dir).unwrap();
        assert_eq!(s.value(50.0), 1.0);
        assert_eq!(s.value(100.0), 2.5);
        // Missing file is a spec error, not a panic.
        assert!(Profile::Trace {
            path: "missing.jsonl".into()
        }
        .lower(&dir)
        .is_err());
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        assert!(serde_json::from_str::<Profile>("{\"nope\": 1}").is_err());
        assert!(Profile::Ramp {
            from: 0.0,
            to: 1.0,
            t_start: 10.0,
            t_end: 10.0
        }
        .lower(&PathBuf::from("."))
        .is_err());
        assert!(Profile::Piecewise(vec![(10.0, 1.0), (0.0, 2.0)])
            .lower(&PathBuf::from("."))
            .is_err());
    }
}
