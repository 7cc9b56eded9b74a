//! Static resolution of override paths against the spec schema.
//!
//! Variant `set`/`quick` overrides, spec-level `quick` overrides and
//! sweep-axis `path`s are dotted paths applied to the raw JSON tree
//! before the typed reparse. The reparse rejects invented keys, but it
//! checks one variant at a time, reports only the first failure, and —
//! for `quick` paths — only fires under `--quick`. This pass resolves
//! *every* path up front against the key tables the parser itself
//! reads with (`spec::SPEC` and the tables it nests; config field lists
//! come from the configs' own default serialization, so neither can
//! drift), and reports all dead paths at once with the valid
//! candidates. `scenario validate` therefore catches a dead path
//! without compiling — let alone running — anything.
//!
//! The check is deliberately a *superset* filter: a path it accepts may
//! still be rejected by the strict reparse in context (e.g. a
//! `controller.is.*` override on a spec whose controller is `pa`), but a
//! path it rejects can never be applied meaningfully.

use crate::spec::{ScenarioSpec, SPEC};
use crate::value_util::Node;
use crate::SpecError;

/// Resolves one dotted path against the schema whose top level is `top`.
fn resolve(top: &[(&str, Node<'_>)], path: &str) -> Result<(), String> {
    if path.is_empty() {
        return Err("the path is empty".to_string());
    }
    let mut node = Node::Keys(top);
    let mut trail: Vec<&str> = Vec::new();
    for seg in path.split('.') {
        if seg.is_empty() {
            return Err("the path has an empty segment".to_string());
        }
        let fields;
        let children: Vec<(&str, Node<'_>)> = match node {
            Node::Any => return Ok(()),
            Node::Scalar => {
                return Err(format!(
                    "`{}` is a leaf field; the path cannot descend into it",
                    trail.join(".")
                ));
            }
            Node::Keys(keys) => keys.to_vec(),
            Node::Fields(of) => {
                fields = of();
                fields.iter().map(|(k, n)| (k.as_str(), *n)).collect()
            }
        };
        match children.iter().find(|(k, _)| *k == seg) {
            Some((_, child)) => node = *child,
            None => {
                let ctx = if trail.is_empty() {
                    "the spec".to_string()
                } else {
                    format!("`{}`", trail.join("."))
                };
                let mut valid: Vec<&str> = children.iter().map(|(k, _)| *k).collect();
                valid.sort_unstable();
                return Err(format!(
                    "no key `{seg}` under {ctx} (valid: {})",
                    valid.join(", ")
                ));
            }
        }
        trail.push(seg);
    }
    Ok(())
}

/// Checks every override path the spec stores — spec-level `quick`,
/// variant `set`/`quick`, sweep-axis `path` — against the schema,
/// collecting *all* dead paths into one error.
pub fn check_override_paths(spec: &ScenarioSpec) -> Result<(), SpecError> {
    // The one dynamic subtree: `inputs` is keyed by the spec's own
    // variant names, then cell names.
    let cells: Vec<Vec<(&str, Node<'_>)>> = spec
        .inputs
        .iter()
        .map(|(_, cells)| cells.iter().map(|(c, _)| (c.as_str(), Node::Scalar)).collect())
        .collect();
    let variants: Vec<(&str, Node<'_>)> = spec
        .inputs
        .iter()
        .zip(&cells)
        .map(|((variant, _), cells)| (variant.as_str(), Node::Keys(cells)))
        .collect();
    let top: Vec<(&str, Node<'_>)> = SPEC
        .iter()
        .map(|&(k, node)| (k, if k == "inputs" { Node::Keys(&variants) } else { node }))
        .collect();
    let mut dead = Vec::new();
    let mut check = |origin: String, path: &str| {
        if let Err(why) = resolve(&top, path) {
            dead.push(format!("{origin}: `{path}`: {why}"));
        }
    };
    for (path, _) in &spec.quick {
        check("`quick`".to_string(), path);
    }
    for v in &spec.variants {
        for (path, _) in &v.set {
            check(format!("variant `{}` `set`", v.name), path);
        }
        for (path, _) in &v.quick {
            check(format!("variant `{}` `quick`", v.name), path);
        }
    }
    if let Some(sweep) = &spec.sweep {
        for (i, axis) in sweep.axes.iter().enumerate() {
            check(format!("sweep axis {i} (`{}`)", axis.header), &axis.path);
        }
    }
    if dead.is_empty() {
        Ok(())
    } else {
        Err(SpecError::new(format!(
            "{} dead override path(s):\n  {}",
            dead.len(),
            dead.join("\n  ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn parse(json: &str) -> Result<ScenarioSpec, SpecError> {
        let v: Value = serde_json::from_str(json).expect("test JSON parses");
        ScenarioSpec::from_value(&v)
    }

    fn base(extra: &str) -> String {
        format!(r#"{{"name": "t", "horizon_ms": 1000.0{extra}}}"#)
    }

    #[test]
    fn live_paths_of_every_shape_resolve() {
        let spec = parse(&base(
            r#", "quick": {
                "horizon_ms": 10.0,
                "system.terminals": 10,
                "system.offered_load_per_s": 50,
                "system.think": {"exponential": 100},
                "control.sample_interval_ms": 100.0,
                "workload.k": 4,
                "controller.pa.dither_amplitude": 2.0,
                "controller.hybrid.is.initial_bound": 5,
                "controller.self_tuning_pa.outer.window": 4,
                "cc": "2pl",
                "cc.adaptive.min_dwell_s": 1.0,
                "faults": []
            }"#,
        ))
        .expect("all live paths parse");
        check_override_paths(&spec).expect("all live paths resolve");
    }

    #[test]
    fn dead_system_field_is_reported_with_candidates() {
        let err = parse(&base(r#", "quick": {"system.terminalz": 10}"#)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("dead override path"), "{msg}");
        assert!(msg.contains("terminalz"), "{msg}");
        assert!(msg.contains("terminals"), "candidates missing: {msg}");
    }

    #[test]
    fn dead_controller_param_is_reported() {
        let err = parse(&base(
            r#", "variants": [{"name": "a", "set": {"controller.pa.alpa": 0.5}}]"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("variant `a` `set`"), "{msg}");
        assert!(msg.contains("alpha"), "candidates missing: {msg}");
    }

    #[test]
    fn descending_into_a_leaf_is_dead() {
        let err = parse(&base(r#", "quick": {"horizon_ms.unit": 1}"#)).unwrap_err();
        assert!(err.to_string().contains("leaf field"), "{err}");
    }

    #[test]
    fn system_seed_is_not_a_live_path() {
        // The parser rejects `system.seed` with its own message; an
        // override path reaching it must die statically too.
        let err = parse(&base(r#", "quick": {"system.seed": 7}"#)).unwrap_err();
        assert!(err.to_string().contains("no key `seed`"), "{err}");
    }

    #[test]
    fn dead_sweep_axis_path_is_reported() {
        let err = parse(&base(
            r#", "sweep": {"axes": [{"header": "x", "path": "system.offered_load",
                                     "values": [1, 2]}]}"#,
        ))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sweep axis 0"), "{msg}");
        assert!(msg.contains("offered_load_per_s"), "candidates missing: {msg}");
    }

    #[test]
    fn input_cell_paths_check_variant_and_cell_names() {
        let good = parse(&base(
            r#", "label_header": "v",
               "columns": [{"input": "alpha"}, "commits"],
               "variants": [{"name": "a", "set": {},
                             "quick": {"inputs.a.alpha": "0.5"}}],
               "inputs": {"a": {"alpha": "0.9"}}"#,
        ))
        .expect("live input-cell path parses");
        check_override_paths(&good).expect("live input-cell path resolves");

        let err = parse(&base(
            r#", "label_header": "v",
               "columns": [{"input": "alpha"}, "commits"],
               "variants": [{"name": "a", "set": {},
                             "quick": {"inputs.a.alfa": "0.5"}}],
               "inputs": {"a": {"alpha": "0.9"}}"#,
        ))
        .unwrap_err();
        assert!(err.to_string().contains("no key `alfa`"), "{err}");
    }

    #[test]
    fn schema_field_lists_track_the_configs() {
        // The schema derives its field lists from the configs' own
        // serialization, so a renamed field cannot leave a stale schema:
        // this test pins the linkage on one representative per config.
        parse(&base(
            r#", "quick": {"system.db_size": 1, "control.victim_policy": 1,
                           "controller.is.max_bound": 1, "controller.iyer.initial_bound": 1}"#,
        ))
        .expect("config fields are live paths");
    }
}
