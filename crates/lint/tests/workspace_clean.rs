//! The linter applied to its own repository: `cargo test` fails if any
//! unsuppressed finding exists anywhere in the workspace, making the
//! static invariants part of the tier-1 gate rather than a separate
//! opt-in tool.

#[path = "../../../tests/common/readme.rs"]
mod readme;

use std::path::{Path, PathBuf};

use alc_lint::config::{PURITY, WALK};
use alc_lint::rules::{listing, RULES};
use alc_lint::run_workspace;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = repo_root();
    let result = run_workspace(&root, |r| r.scopes).expect("workspace lints");
    let offending: Vec<String> = result
        .unsuppressed()
        .map(|f| format!("{}:{}:{} [{}] {}", f.path, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        offending.is_empty(),
        "unsuppressed lint findings:\n{}",
        offending.join("\n")
    );
}

#[test]
fn every_lint_path_exists() {
    // A prefix left behind when a file moves matches nothing, and the
    // rule it scopes silently loses that reach.
    let root = repo_root();
    let mut stale = Vec::new();
    for scope in RULES.iter().flat_map(|r| r.scopes).chain([&WALK]) {
        for path in scope.include.iter().chain(scope.exclude) {
            if !root.join(path).exists() {
                stale.push(format!("scope `{}`: `{path}`", scope.name));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "lint paths that name nothing:\n{}",
        stale.join("\n")
    );
}

#[test]
fn purity_scoped_modules_carry_no_suppressions_at_all() {
    // The acceptance bar for the purity scope is stricter than "clean":
    // the purity rules must hold with no inline allows, so decision
    // logic stays genuinely pure — any clock or I/O belongs in the
    // runtime shell, which carries its own reasoned allows.
    let root = repo_root();
    let mut offending = Vec::new();
    for path in PURITY.include {
        scan_for_allows(&root, &root.join(path), &mut offending);
    }
    assert!(
        offending.is_empty(),
        "purity-scoped modules must not contain alc-lint allows:\n{}",
        offending.join("\n")
    );
}

fn scan_for_allows(root: &Path, path: &Path, out: &mut Vec<String>) {
    let rel = path
        .strip_prefix(root)
        .expect("under the root")
        .to_string_lossy();
    if !PURITY.contains(&rel) {
        return;
    }
    if path.is_dir() {
        for entry in std::fs::read_dir(path).expect("purity dir lists") {
            scan_for_allows(root, &entry.expect("dir entry").path(), out);
        }
    } else if path.extension().is_some_and(|x| x == "rs") {
        let text = std::fs::read_to_string(path).expect("read source");
        for (i, line) in text.lines().enumerate() {
            if line.contains("alc-lint:") {
                out.push(format!("{rel}:{}: {}", i + 1, line.trim()));
            }
        }
    }
}

#[test]
fn readme_rule_table_is_the_rules_listing() {
    readme::check_readme_block("lint-rules", &format!("```text\n{}```\n", listing()));
}
