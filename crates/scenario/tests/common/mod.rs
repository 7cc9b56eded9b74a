//! The few constructors the property tests (`roundtrip.rs`,
//! `client_conservation.rs`, `trace_conservation.rs`) write spec trees
//! with.

#![allow(dead_code)] // each test binary uses its own subset

use alc_scenario::compile::RunPlan;
use serde::Value;

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
/// `{"exponential": mean}` shorthand (drawn by the ziggurat) or a
/// one-stage `{"erlang": …}` (the same distribution, drawn by inversion).
pub fn exponential(mean: f64, ziggurat: bool) -> Value {
    if ziggurat {
        tag("exponential", Value::Num(mean))
    } else {
        let stages = ("stages", Value::U64(1));
        tag("erlang", obj([stages, ("mean", Value::Num(mean))]))
    }
}

/// Compiles a generated spec tree at full scale; the generators only
/// emit valid, trace-free specs.
pub fn compile(tree: &Value) -> RunPlan {
    alc_scenario::compile::compile_value(tree, std::path::Path::new("."), false)
        .expect("generated spec compiles")
}
