//! Helpers shared by the golden tests (`golden.rs`, `golden_port.rs`):
//! where the specs and the pinned files live, how a quick-scale table is
//! produced, and the compare-or-rebless step. And by the property tests
//! (`roundtrip.rs`, `client_conservation.rs`, `trace_conservation.rs`):
//! the few constructors their generators write spec trees with.

#![allow(dead_code)] // each test binary uses its own subset

use std::path::PathBuf;

use alc_scenario::compile::RunPlan;
use alc_scenario::runner::{self, RunRecord};
use alc_scenario::LoadedSpec;
use serde::Value;

pub fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The one golden directory of the workspace.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `actual` with `tests/golden/<name>`. `UPDATE_GOLDEN=1`
/// re-blesses the file from the current run instead — only for
/// *deliberate* realization changes (e.g. the ziggurat default-sampler
/// promotion), never to paper over an unexplained divergence, and the
/// commit message says so.
pub fn compare_or_bless(name: &str, actual: &[u8]) {
    let golden_path = golden_dir().join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert!(
        golden == actual,
        "{name} diverged from the golden output — the change altered \
         simulation results (rerun with UPDATE_GOLDEN=1 only if this was \
         intentional)"
    );
}

/// Runs a checked-in spec at quick scale.
pub fn run_quick(spec_name: &str) -> (RunPlan, Vec<RunRecord>) {
    let path = scenarios_dir().join(format!("{spec_name}.json"));
    let plan = LoadedSpec::read(&path)
        .and_then(|loaded| loaded.compile(true))
        .unwrap_or_else(|e| panic!("{spec_name}: {e}"));
    let records = runner::run_plan(&plan);
    (plan, records)
}

/// The CSV of a spec's default report table.
pub fn table_csv(plan: &RunPlan, records: &[RunRecord]) -> String {
    let mut csv = String::new();
    runner::build_report(plan, records).render_csv_into(&mut csv);
    csv
}

/// A JSON object with literal keys, in the order given.
pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An object of number fields.
pub fn nums<const N: usize>(fields: [(&str, f64); N]) -> Value {
    obj(fields.map(|(k, x)| (k, Value::Num(x))))
}

/// A single-key object: the DSL's form for a tagged union.
pub fn tag(tag: &str, payload: Value) -> Value {
    obj([(tag, payload)])
}

/// A JSON string.
pub fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// An exponential distribution as a user may write it: the
/// `{"exponential": mean}` shorthand or the canonical derive form.
pub fn exponential(mean: f64, shorthand: bool) -> Value {
    if shorthand {
        tag("exponential", Value::Num(mean))
    } else {
        tag("Exponential", obj([("mean", Value::Num(mean))]))
    }
}

/// Compiles a generated spec tree at full scale; the generators only
/// emit valid, trace-free specs.
pub fn compile(tree: &Value) -> RunPlan {
    alc_scenario::compile::compile_value(tree, std::path::Path::new("."), false)
        .expect("generated spec compiles")
}
