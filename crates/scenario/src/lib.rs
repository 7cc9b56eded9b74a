//! `alc-scenario` — nonstationary load-control experiments as data.
//!
//! Heiß & Wagner's argument lives in *nonstationary* territory: the
//! adaptive MPL controllers earn their keep when the workload jumps,
//! drifts or oscillates. This crate turns such experiments from bespoke
//! Rust functions into checked-in JSON **scenario specs**:
//!
//! * [`profile`] — the time-varying value DSL (steps, ramps, sinusoids,
//!   bursts, trace replay, phase lists), read straight into the engine's
//!   [`alc_analytic::surface::Schedule`];
//! * [`spec::ScenarioSpec`] — one experiment: a [`spec::CellSpec`]
//!   (the engine's system, control and workload configs, a controller),
//!   ablation variants or a sweep grid, and quick (CI-scale) overrides.
//!   Parsing is strict: unknown keys are errors, and so is a value the
//!   engine would not run as written;
//! * [`compile`] — deterministic lowering into a [`compile::RunPlan`]:
//!   each variant's or grid point's cell as read, with per-replication
//!   seeds;
//! * [`runner`] — rayon-parallel execution emitting [`report::Report`]
//!   tables / CSVs plus trajectory CSVs;
//! * [`figures`] — the paper's figure catalog: each engine figure's runs
//!   are a spec, and a small presentation function lays the paper's
//!   table, chart, paper-vs-measured notes and checked claims over the
//!   records.
//!
//! The `scenario` binary drives it all:
//!
//! ```text
//! scenario run [--quick] [--out DIR] [--gate-log DIR] [--set path=value]... spec.json...
//! scenario validate scenarios/*.json
//! scenario replay <spec.json> <log.jsonl>...
//! scenario list [DIR]
//! scenario figure [--quick] [--out DIR] <all | list | fig01 fig12 ...>
//! ```
//!
//! The checked-in specs under `scenarios/` include ports of every
//! hand-written figure and ablation runner that ran the engine; the
//! output-identity test (`tests/golden.rs`) pins those ports
//! byte-identical to the pre-port outputs, proving the DSL subsumes the
//! hand-written experiments, and pins every other file the quick catalog
//! writes by its digest in `tests/golden/OUTPUTS`.

pub mod compile;
pub mod conformance;
pub mod figures;
pub mod html;
pub mod plot;
pub mod profile;
pub mod report;
pub mod runner;
pub mod spec;
pub mod table;
pub mod trace;
mod validate;
pub mod value_util;

use std::path::{Path, PathBuf};

use serde::Value;

/// A spec loading/validation/compilation error with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    message: String,
}

impl SpecError {
    /// Creates an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }

    /// Wraps the error with an outer context (innermost message last).
    pub fn context(self, ctx: impl std::fmt::Display) -> Self {
        SpecError {
            message: format!("{ctx}: {}", self.message),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<serde::Error> for SpecError {
    fn from(e: serde::Error) -> Self {
        SpecError::new(e.to_string())
    }
}

/// A spec file loaded into its JSON tree, remembering the directory that
/// trace paths resolve against.
#[derive(Debug, Clone)]
pub struct LoadedSpec {
    /// The raw JSON tree (overrides apply here before the typed parse).
    pub value: Value,
    /// Directory of the spec file (trace-path base).
    pub base_dir: PathBuf,
    /// The file the spec came from, for messages.
    pub path: PathBuf,
}

impl LoadedSpec {
    /// Reads and parses a spec file (not yet validated — see
    /// [`LoadedSpec::compile`]).
    pub fn read(path: &Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::new(format!("cannot read `{}`: {e}", path.display())))?;
        let value: Value = serde_json::from_str(&text)
            .map_err(|e| SpecError::new(format!("`{}`: {e}", path.display())))?;
        let base_dir = path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        Ok(LoadedSpec {
            value,
            base_dir,
            path: path.to_path_buf(),
        })
    }

    /// Applies `--set path=value` overrides to the tree.
    pub fn apply_sets(&mut self, sets: &[(String, Value)]) -> Result<(), SpecError> {
        for (path, val) in sets {
            value_util::set_path(&mut self.value, path, val.clone())
                .map_err(|e| e.context("--set"))?;
        }
        Ok(())
    }

    /// Compiles the (possibly overridden) tree into a run plan,
    /// validating everything on the way.
    pub fn compile(&self, quick: bool) -> Result<compile::RunPlan, SpecError> {
        compile::compile_value(&self.value, &self.base_dir, quick)
            .map_err(|e| e.context(self.path.display().to_string()))
    }
}

/// Parses one `path=value` CLI override. The value parses as JSON; one
/// that does not start like JSON's object, list or string falls back to
/// a bare string (`cc=2pl` works without quoting), and one that does must
/// parse, or its JSON error is the override's.
pub fn parse_set_arg(arg: &str) -> Result<(String, Value), SpecError> {
    let Some((path, raw)) = arg.split_once('=') else {
        return Err(SpecError::new(format!(
            "--set needs `path=value`, got `{arg}`"
        )));
    };
    if path.is_empty() {
        return Err(SpecError::new("--set path must not be empty"));
    }
    let value = match serde_json::from_str::<Value>(raw) {
        Ok(value) => value,
        Err(e) if raw.starts_with(['{', '[', '"']) => {
            return Err(SpecError::new(format!("--set `{path}`: {e}")));
        }
        Err(_) => Value::Str(raw.to_string()),
    };
    Ok((path.to_string(), value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_set_arg_forms() {
        let (p, v) = parse_set_arg("system.terminals=40").unwrap();
        assert_eq!(p, "system.terminals");
        assert_eq!(v, Value::U64(40));
        let (_, v) = parse_set_arg("cc=2pl").unwrap();
        assert_eq!(v, Value::Str("2pl".into()));
        let (_, v) = parse_set_arg("workload.k={\"step\":{\"at\":1,\"before\":2,\"after\":3}}")
            .unwrap();
        assert!(v.get("step").is_some());
        assert!(parse_set_arg("no-equals").is_err());
        // A value that starts like JSON must parse as JSON: its error is
        // the override's, not a bare string's misreading further on.
        for (arg, error) in [
            (r#"system.think={"exponential": 1e999}"#, "number out of range `1e999`"),
            (r#"system.think={"exponential": }"#, "--set `system.think`:"),
            ("sweep.axes.0.values=[5, 10", "--set `sweep.axes.0.values`:"),
            (r#"cc="2pl"#, "--set `cc`:"),
        ] {
            let msg = parse_set_arg(arg).unwrap_err().to_string();
            assert!(msg.contains(error), "{arg}: {msg}");
        }
        // Anything else still falls back to a bare string.
        let (_, v) = parse_set_arg("cc=wound-wait").unwrap();
        assert_eq!(v, Value::Str("wound-wait".into()));
        let (_, v) = parse_set_arg("label=1e999x").unwrap();
        assert_eq!(v, Value::Str("1e999x".into()));
    }
}
