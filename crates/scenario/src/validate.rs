//! Landing a cell's overrides, and naming the ones to blame when the
//! cell does not read.
//!
//! Variant `set`/`quick` overrides, spec-level `quick` overrides and
//! sweep-axis values are dotted paths applied to the spec's JSON tree
//! before it is read. There is no schema to check a path against but
//! the strict reader itself: [`land`] applies a cell's overrides in the
//! order compile gives them and reads the result once. Only when that
//! read fails are the overrides applied again one at a time, each read
//! on the tree the ones before it left, so the error names every
//! override that breaks the tree — where it comes from, its path, and
//! the reader's own message with the keys the section does know — and
//! none that does not. A cell that reads costs one read.
//!
//! The reader checks every rule on a cell, not only its keys: a value
//! out of its config's range (`system.cpus: 0`), a profile out of shape
//! (a ramp that ends before it starts) or out of its field's domain
//! (`k` below 1), and the rules across sections (`k` ≤ `db_size`), so
//! each of these is blamed on the override that set it.
//!
//! `scenario validate` compiles every spec at both scales, so a dead
//! `quick` path fails there, although a full-scale `run` never applies
//! it.

use std::path::Path;

use serde::Value;

use crate::spec::ScenarioSpec;
use crate::value_util::set_path;
use crate::SpecError;

/// One layer of a cell's overrides: where they come from (for errors),
/// and the `(path, value)` pairs, applied in order.
pub(crate) type Layer<'a> = (String, Vec<(&'a str, &'a Value)>);

/// Applies `layers` to a copy of `base` and reads the result (`trace`
/// files relative to `base_dir`): the cell's tree and its spec, or one
/// line per override to blame.
pub(crate) fn land(
    base: &Value,
    base_dir: &Path,
    layers: &[Layer<'_>],
) -> Result<(Value, ScenarioSpec), Vec<String>> {
    let mut tree = base.clone();
    let landed = layers
        .iter()
        .flat_map(|(_, overrides)| overrides)
        .try_for_each(|&(path, val)| set_path(&mut tree, path, val.clone()));
    match landed.and_then(|()| ScenarioSpec::from_value(&tree, base_dir)) {
        Ok(spec) => Ok((tree, spec)),
        Err(whole) => {
            let dead = blame(base, base_dir, layers);
            Err(if dead.is_empty() {
                vec![whole.to_string()]
            } else {
                dead
            })
        }
    }
}

/// Applies the overrides one at a time, each on the tree the ones
/// before it left, and names those after which the tree no longer
/// reads. Each of those is left out, so one dead path does not condemn
/// the ones after it.
fn blame(base: &Value, base_dir: &Path, layers: &[Layer<'_>]) -> Vec<String> {
    let mut tree = base.clone();
    let mut dead = Vec::new();
    for (origin, overrides) in layers {
        for &(path, val) in overrides {
            let mut next = tree.clone();
            let read = set_path(&mut next, path, val.clone())
                .and_then(|()| ScenarioSpec::from_value(&next, base_dir).map(drop));
            match read {
                Ok(()) => tree = next,
                Err(e) => dead.push(format!("{origin}: `{path}`: {e}")),
            }
        }
    }
    dead
}

/// The error listing every dead override of a plan's cells, each once
/// (a spec-level `quick` path is applied in every cell).
pub(crate) fn dead_paths(mut dead: Vec<String>) -> SpecError {
    let mut seen = std::collections::BTreeSet::new();
    dead.retain(|line| seen.insert(line.clone()));
    SpecError::new(format!(
        "{} dead override path(s):\n  {}",
        dead.len(),
        dead.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;
    use crate::compile::{compile_value, RunPlan};

    /// Compiles a spec at one scale (quick scale lands every kind of
    /// override).
    fn compile(json: &str, quick: bool) -> Result<RunPlan, SpecError> {
        let v: Value = serde_json::from_str(json).expect("test JSON parses");
        compile_value(&v, Path::new("."), quick)
    }

    fn base(extra: &str) -> String {
        format!(r#"{{"name": "t", "horizon_ms": 1000.0{extra}}}"#)
    }

    fn quick_err(extra: &str) -> String {
        compile(&base(extra), true).expect_err(extra).to_string()
    }

    #[test]
    fn live_paths_of_every_shape_resolve() {
        // A path is live when the tree it lands on still reads: a
        // controller's parameters once the variant's `set` chose it.
        compile(
            &base(
                r#", "quick": {
                    "horizon_ms": 10.0,
                    "system.terminals": 10,
                    "system.offered_load_per_s": 50,
                    "system.think": {"exponential": 100},
                    "control.sample_interval_ms": 100.0,
                    "workload.k": 4,
                    "faults": []
                },
                "variants": [
                    {"name": "pa", "set": {"controller": {"pa": {}}},
                     "quick": {"controller.pa.dither_amplitude": 2.0}},
                    {"name": "hybrid", "set": {"controller": {"hybrid": {}}},
                     "quick": {"controller.hybrid.is.initial_bound": 5}},
                    {"name": "st", "set": {"controller.self_tuning_is.outer.window": 4}},
                    {"name": "2pl", "set": {"cc": "2pl"}},
                    {"name": "adaptive",
                     "set": {"cc": {"adaptive": {"candidates": ["2pl", "mvto"],
                             "policy": {"shadow_score": {}}, "min_dwell_s": 5.0}}},
                     "quick": {"cc.adaptive.min_dwell_s": 1.0}}
                ]"#,
            ),
            true,
        )
        .expect("all live paths land");
    }

    #[test]
    fn dead_system_field_is_reported_with_candidates() {
        let msg = quick_err(r#", "quick": {"system.terminalz": 10}"#);
        assert!(msg.contains("dead override path"), "{msg}");
        assert!(msg.contains("`quick`: `system.terminalz`"), "{msg}");
        assert!(msg.contains("terminals"), "candidates missing: {msg}");
    }

    #[test]
    fn dead_controller_param_is_reported() {
        let json = base(r#", "variants": [{"name": "a", "set": {"controller.pa.alpa": 0.5}}]"#);
        let msg = compile(&json, false).unwrap_err().to_string();
        assert!(msg.contains("variant `a` `set`"), "{msg}");
        assert!(msg.contains("alpha"), "candidates missing: {msg}");
    }

    #[test]
    fn descending_into_a_leaf_is_dead() {
        let msg = quick_err(r#", "quick": {"horizon_ms.unit": 1}"#);
        assert!(msg.contains("not inside an object or list"), "{msg}");
    }

    #[test]
    fn system_seed_is_not_a_live_path() {
        // The reader rejects `system.seed` with its own message, and an
        // override path reaching it is dead by that message.
        let msg = quick_err(r#", "quick": {"system.seed": 7}"#);
        assert!(msg.contains("top-level `seed`"), "{msg}");
    }

    #[test]
    fn dead_sweep_axis_path_is_reported() {
        let json = base(
            r#", "sweep": {"axes": [{"header": "x", "path": "system.offered_load",
                                     "values": [1, 2]}]}"#,
        );
        let msg = compile(&json, false).unwrap_err().to_string();
        // Both cells hit the same dead path; it is named once.
        assert!(msg.starts_with("1 dead override path"), "{msg}");
        assert!(msg.contains("sweep axis 0 (`x`)"), "{msg}");
        assert!(
            msg.contains("offered_load_per_s"),
            "candidates missing: {msg}"
        );
    }

    #[test]
    fn input_cell_paths_check_variant_and_cell_names() {
        let with = |quick: &str| {
            base(&format!(
                r#", "label_header": "v",
                   "columns": [{{"input": "alpha"}}, "commits"],
                   "variants": [{{"name": "a", "set": {{}}, "quick": {{{quick}}}}}],
                   "inputs": {{"a": {{"alpha": "0.9"}}}}"#
            ))
        };
        compile(&with(r#""inputs.a.alpha": "0.5""#), true).expect("live input-cell path lands");
        let msg = compile(&with(r#""inputs.a.alfa": "0.5""#), true)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`inputs.a.alfa` is read by no"), "{msg}");
        let msg = compile(&with(r#""inputs.b.alpha": "0.5""#), true)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("unknown variant `b`"), "{msg}");
    }

    #[test]
    fn schema_field_lists_track_the_configs() {
        // The reader is the schema: every key the `system` and `control`
        // readers ask for (they build their configs field by field) is a
        // live path, on which some DSL value lands.
        let tree: Value = serde_json::from_str(&base("")).unwrap();
        let reads = crate::value_util::reads::recording(|| {
            compile_value(&tree, Path::new("."), false).expect("the base compiles");
        });
        let paths: std::collections::BTreeSet<String> = reads
            .keys
            .iter()
            .filter(|r| ["system", "control"].contains(&r.section.as_str()))
            .flat_map(|r| r.known.iter().map(move |k| format!("{}.{k}", r.section)))
            .collect();
        assert!(paths.len() > 15, "the configs lost their fields: {paths:?}");
        assert!(!paths.contains("system.seed"), "the top-level `seed` owns it");
        let values = [r#"20"#, "true", r#""closed""#, r#""Throughput""#, r#""Oldest""#]
            .map(|v| serde_json::from_str::<Value>(v).unwrap());
        for path in &paths {
            let lands = values.iter().any(|v| {
                let mut tree = tree.clone();
                set_path(&mut tree, path, v.clone()).unwrap();
                compile_value(&tree, Path::new("."), false).is_ok()
            });
            assert!(lands, "no value lands on `{path}`, which the reader reads");
        }
    }

    #[test]
    fn a_path_is_read_on_the_tree_its_variant_set_left() {
        // An `is` parameter on a spec whose controller is `pa` would
        // give the controller two kinds: dead, unless a `set` before it
        // made the controller `is`.
        let with = |set: &str| {
            base(&format!(
                r#", "controller": {{"pa": {{}}}},
                   "variants": [{{"name": "a", "set": {{{set}}},
                                  "quick": {{"controller.is.beta": 2.0}}}}]"#
            ))
        };
        let msg = compile(&with(""), true).unwrap_err().to_string();
        assert!(
            msg.contains("variant `a` `quick`: `controller.is.beta`"),
            "{msg}"
        );
        compile(&with(r#""controller": {"is": {}}"#), true).expect("the set chose `is`");
    }

    #[test]
    fn every_dead_path_is_named_once_and_no_live_one() {
        let msg = quick_err(
            r#", "quick": {"system.terminalz": 10, "system.cpus": 4},
               "variants": [
                   {"name": "a", "set": {"control.initial_bound": 5}},
                   {"name": "b", "set": {"control.initial_bund": 5}}
               ]"#,
        );
        assert!(msg.starts_with("2 dead override path(s)"), "{msg}");
        assert_eq!(msg.matches("system.terminalz").count(), 1, "{msg}");
        assert!(
            msg.contains("variant `b` `set`: `control.initial_bund`"),
            "{msg}"
        );
        assert!(
            !msg.contains("system.cpus") && !msg.contains("`control.initial_bound`"),
            "{msg}"
        );
    }

    #[test]
    fn every_override_that_breaks_a_cell_rule_is_named() {
        // Rules on values, not keys: a profile out of shape, a system
        // field out of range, and `k` beyond `db_size` (2,000 by
        // default) — each blamed on the override that set it, in one
        // error across both variants.
        let msg = quick_err(
            r#", "quick": {"workload.k": 2500, "system.cpus": 0},
               "variants": [
                   {"name": "a", "set": {"workload.k":
                       {"ramp": {"from": 4, "to": 8, "t_start": 5000, "t_end": 1000}}}},
                   {"name": "b", "set": {"system.cpus": 0}}
               ]"#,
        );
        assert!(msg.starts_with("4 dead override path(s)"), "{msg}");
        for named in [
            "variant `a` `set`: `workload.k`: `workload.k`: ramp t_end (1000) must exceed",
            "variant `b` `set`: `system.cpus`: system.cpus must be ≥ 1",
            "`quick`: `workload.k`: workload.k reaches 2500 distinct items",
            "`quick`: `system.cpus`: system.cpus must be ≥ 1",
        ] {
            assert!(msg.contains(named), "{named}: {msg}");
        }
    }
}
