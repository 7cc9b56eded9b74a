//! Deterministic mutation sweep over the checked-in specs: the spec
//! front end must answer any tree with `Ok` or `Err`, never a panic,
//! and must never read past a key it does not know.
//!
//! Every node of every `scenarios/*.json` tree is replaced in turn by
//! `null`, `7`, `"x"`, `[]` and `{}`, and the mutant compiled at both
//! scales; every variant of a mutant that compiles is then assembled
//! into the engine `run` would build, which must not panic either (a
//! spec `validate` accepts is one `run` can start). Every object is
//! then given a stray key, and a repeat of its first key: both must be
//! rejected with an error that names the
//! section — the guard that no section of the parser forgets
//! `Obj::finish`, and that no lenient path takes "the last one wins".
//! Every stored override path (spec `quick`, variant `set`/`quick`,
//! sweep-axis `path`) is misspelled in turn: the scale that applies it
//! must reject it by name. Every integer leaf is finally set to `-1`,
//! to itself plus a half and to `2^32 + 2`: integers are exact and in
//! range, or an error that names the section.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use alc_scenario::compile::RunPlan;
use alc_scenario::LoadedSpec;
use serde::Value;

/// The checked-in specs, sorted.
fn catalog() -> Vec<LoadedSpec> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 36, "the catalog moved; update this sweep");
    paths
        .iter()
        .map(|p| LoadedSpec::read(p).expect("checked-in spec reads"))
        .collect()
}

/// Child positions from the root: entry `i` of a map, item `i` of a list.
type Path = Vec<usize>;

fn collect(v: &Value, here: &mut Path, out: &mut Vec<Path>) {
    out.push(here.clone());
    let children: Vec<&Value> = match v {
        Value::Map(entries) => entries.iter().map(|(_, c)| c).collect(),
        Value::Seq(items) => items.iter().collect(),
        _ => return,
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        collect(child, here, out);
        here.pop();
    }
}

fn node<'a>(root: &'a Value, path: &[usize]) -> &'a Value {
    path.iter().fold(root, |v, &i| match v {
        Value::Map(entries) => &entries[i].1,
        Value::Seq(items) => &items[i],
        _ => unreachable!("paths come from `collect`"),
    })
}

fn node_mut<'a>(root: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(root, |v, &i| match v {
        Value::Map(entries) => &mut entries[i].1,
        Value::Seq(items) => &mut items[i],
        _ => unreachable!("paths come from `collect`"),
    })
}

/// The map keys on the way down to `path`.
fn keys_along(root: &Value, path: &[usize]) -> Vec<String> {
    (0..path.len())
        .filter_map(|depth| match node(root, &path[..depth]) {
            Value::Map(entries) => Some(entries[path[depth]].0.clone()),
            _ => None,
        })
        .collect()
}

/// Compiles `spec` at one scale; a panic is a test failure that says
/// where.
fn compile(spec: &LoadedSpec, quick: bool, what: &str) -> Result<RunPlan, String> {
    match catch_unwind(AssertUnwindSafe(|| spec.compile(quick))) {
        Ok(outcome) => outcome.map_err(|e| e.to_string()),
        Err(_) => panic!(
            "{}: {what}: compile(quick={quick}) panicked",
            spec.path.display()
        ),
    }
}

/// Assembles the engine of every variant of `plan` (controller, adaptive
/// policy, clients, faults) that differs from the same cell of `base`,
/// the unmutated plan already assembled; a panic is a test failure that
/// says where.
fn assemble(spec: &LoadedSpec, plan: &RunPlan, base: Option<&RunPlan>, what: &str) {
    for (i, v) in plan.variants.iter().enumerate() {
        if base.is_some_and(|b| b.variants.get(i) == Some(v)) {
            continue;
        }
        if catch_unwind(AssertUnwindSafe(|| v.simulator(0))).is_err() {
            panic!(
                "{}: {what}: variant `{}` compiled and panicked its assembly",
                spec.path.display(),
                v.label
            );
        }
    }
}

#[test]
fn replacing_any_node_never_panics() {
    for spec in catalog() {
        let base = [false, true].map(|quick| {
            let plan = compile(&spec, quick, "unmutated").expect("checked-in spec compiles");
            assemble(&spec, &plan, None, "unmutated");
            plan
        });
        let mut paths = Vec::new();
        collect(&spec.value, &mut Vec::new(), &mut paths);
        for path in &paths {
            for replacement in [
                Value::Null,
                Value::U64(7),
                Value::Str("x".into()),
                Value::Seq(Vec::new()),
                Value::Map(Vec::new()),
            ] {
                let mut mutant = spec.clone();
                let what = format!("{:?} := {replacement:?}", keys_along(&spec.value, path));
                *node_mut(&mut mutant.value, path) = replacement;
                for (quick, base) in [false, true].into_iter().zip(&base) {
                    if let Ok(plan) = compile(&mutant, quick, &what) {
                        assemble(&mutant, &plan, Some(base), &what);
                    }
                }
            }
        }
    }
}

#[test]
fn stray_and_repeated_keys_are_rejected_by_name() {
    let mut objects = 0;
    for spec in catalog() {
        let mut paths = Vec::new();
        collect(&spec.value, &mut Vec::new(), &mut paths);
        for path in &paths {
            let Value::Map(entries) = node(&spec.value, path) else {
                continue;
            };
            objects += 1;
            let keys = keys_along(&spec.value, path);
            // The section is named after the key the object sits under
            // (override maps key by dotted path: the last component); an
            // object that is a sweep value is read as the field the
            // axis's `path` names.
            let swept = match (keys.last().map(String::as_str), path.len().checked_sub(2)) {
                (Some("values"), Some(axis)) => match node(&spec.value, &path[..axis]).get("path") {
                    Some(Value::Str(target)) => Some(target),
                    _ => None,
                },
                _ => None,
            };
            let section = match swept.or(keys.last()) {
                Some(key) => key.rsplit('.').next().unwrap_or(key).to_lowercase(),
                None => "spec".to_string(),
            };
            // `quick` values are only read at quick scale.
            let full_scale_reads_it = !keys.iter().any(|k| k == "quick");
            let stray = ("__stray__".to_string(), Value::Null);
            let mutations = [("stray key", stray)].into_iter().chain(
                entries
                    .first()
                    .cloned()
                    .map(|first| ("repeated key", first)),
            );
            for (what, extra) in mutations {
                let what = format!("{what} in {keys:?}");
                let mut mutant = spec.clone();
                match node_mut(&mut mutant.value, path) {
                    Value::Map(entries) => entries.push(extra),
                    _ => unreachable!("just matched"),
                }
                for quick in [true, false] {
                    match compile(&mutant, quick, &what).map(|_| ()) {
                        Err(msg) => assert!(
                            msg.to_lowercase().contains(&section),
                            "{}: {what}: error does not name `{section}`: {msg}",
                            spec.path.display()
                        ),
                        Ok(()) => assert!(
                            !quick && !full_scale_reads_it,
                            "{}: {what}: accepted at quick={quick}",
                            spec.path.display()
                        ),
                    }
                }
            }
        }
    }
    assert!(objects > 400, "the sweep lost its objects ({objects})");
}

#[test]
fn misspelled_override_paths_are_rejected_by_name() {
    // The reader is the only schema an override path meets: every path
    // the catalog stores, its last segment misspelled, must fail the
    // scale that applies it, and the error must name the misspelling.
    let mut misspelled = 0;
    for spec in catalog() {
        let mut paths = Vec::new();
        collect(&spec.value, &mut Vec::new(), &mut paths);
        for path in &paths {
            let keys = keys_along(&spec.value, path);
            let quick = match keys.iter().map(String::as_str).collect::<Vec<_>>()[..] {
                ["quick"] | ["variants", "quick"] => true,
                ["variants", "set"] | ["sweep", "axes", "path"] => false,
                _ => continue,
            };
            let count = match node(&spec.value, path) {
                Value::Map(entries) => entries.len(),
                _ => 1,
            };
            for i in 0..count {
                let mut mutant = spec.clone();
                let bad = match node_mut(&mut mutant.value, path) {
                    Value::Map(entries) => &mut entries[i].0,
                    Value::Str(axis_path) => axis_path,
                    other => unreachable!("an override site is a map or a path, not {other:?}"),
                };
                bad.push('x');
                let what = format!("`{bad}` in {keys:?}");
                // A `quick` path into a sweep's values is read as the
                // axis it rewrites, whose error names the key, not the
                // whole path.
                let key = bad.rsplit('.').next().unwrap_or_default().to_string();
                misspelled += 1;
                match compile(&mutant, quick, &what) {
                    Err(msg) => assert!(
                        msg.contains(&key),
                        "{}: {what}: error does not name `{key}`: {msg}",
                        spec.path.display()
                    ),
                    Ok(_) => panic!("{}: {what}: accepted at quick={quick}", spec.path.display()),
                }
            }
        }
    }
    assert!(misspelled > 200, "the sweep lost its paths ({misspelled})");
}

#[test]
fn integer_leaves_are_exact_and_in_range_or_rejected_by_name() {
    let mut leaves = 0;
    for spec in catalog() {
        let mut paths = Vec::new();
        collect(&spec.value, &mut Vec::new(), &mut paths);
        for path in &paths {
            let Value::U64(x) = *node(&spec.value, path) else {
                continue;
            };
            let keys = keys_along(&spec.value, path);
            // Override maps key by dotted path: one vocabulary of parts.
            let dotted = keys.join(".");
            let parts: Vec<&str> = dotted.split('.').collect();
            let leaf = parts[parts.len() - 1];
            // Numbers that merely happen to be written without a
            // fraction (sweep values take the type of their target).
            if leaf == "offered_load_per_s" || leaf == "values" || dotted.ends_with("workload.k") {
                continue;
            }
            leaves += 1;
            // The section is the object the leaf sits in; a distribution
            // is reported under the field it fills.
            let section = parts[..parts.len() - 1]
                .iter()
                .rev()
                .find(|part| **part != "erlang")
                .map_or("spec".to_string(), |part| part.to_lowercase());
            let is_64_bit = ["seed", "db_size", "warmup_samples"].contains(&leaf);
            // `quick` values are only read at quick scale, where they
            // may in turn override a full-scale leaf.
            let quick = keys.iter().any(|k| k == "quick");
            for bad in [
                Value::Num(-1.0),
                Value::Num(x as f64 + 0.5),
                Value::U64((1 << 32) + 2),
            ] {
                if is_64_bit && matches!(bad, Value::U64(_)) {
                    continue;
                }
                let what = format!("{dotted} := {bad:?}");
                let mut mutant = spec.clone();
                *node_mut(&mut mutant.value, path) = bad;
                match compile(&mutant, quick, &what).map(|_| ()) {
                    Err(msg) => assert!(
                        msg.to_lowercase().contains(&section),
                        "{}: {what}: error does not name `{section}`: {msg}",
                        spec.path.display()
                    ),
                    Ok(()) => panic!("{}: {what}: accepted", spec.path.display()),
                }
            }
        }
    }
    assert!(leaves > 250, "the sweep lost its integer leaves ({leaves})");
}
