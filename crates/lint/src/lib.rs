//! `alc-lint` — repo-specific static analysis for the adaptive-load-
//! control workspace.
//!
//! The repo's guarantees (byte-identical goldens, serial == parallel
//! scenario runs, zero-alloc hot paths, pure controllers) are enforced
//! dynamically by tests — which only see the code paths they execute.
//! This crate turns the same invariants into *static* rules over the
//! whole source tree: a dependency-free token-level analyzer (no `syn`
//! in the vendored offline shim set). Each rule's row in the registry
//! names the `const` file sets it applies to, and inline
//! `// alc-lint: allow(rule, reason="…")` suppressions require a
//! reason.
//!
//! Layers:
//! * [`lexer`] — the hand-rolled Rust lexer (tokens + comments);
//! * [`source`] — per-file context: test regions, suppressions;
//! * [`config`] — the walk and the scopes rules bind;
//! * [`rules`] — the rule registry and token matchers;
//! * [`report`] — rustc-style text and JSON rendering.
//!
//! [`rules::listing`] (`alc-lint --rules`) prints every rule with its
//! scopes and every scope with its paths.
//!
//! # `dead-pub`, and resolving a finding
//!
//! `dead-pub` (family `minimal`) is the one rule that reads more than one
//! file. Its callers ([`rules::Callers`]) are the non-test code of every
//! *other* file the walk reaches and all of every integration-test file;
//! `use` lines, comments, strings and the declaring file's own
//! `#[cfg(test)]` code name nothing. Types, `pub(crate)` items and trait
//! methods are outside it, and a name that collides with another item's
//! is a missed finding, never a false one; by hand, a trait method stays
//! only while product code calls it. A finding goes by deleting the item
//! (when only its unit tests call it) or dropping `pub` (when its own
//! file does). There is no per-rule exclusion list: a file leaves a
//! rule's reach through the rule's scope or a reasoned inline allow, and
//! the `purity` scope admits no allow at all.
//!
//! # Adding a rule
//!
//! Give it a [`rules::RULES`] row naming its scopes, a matcher in
//! `scan_rule`, and a fixture pair `tests/fixtures/<rule>/{fire,
//! suppressed}.rs` with blessed `.expected` snapshots
//! (`UPDATE_LINT_FIXTURES=1 cargo test -p alc-lint --test fixtures`); a
//! test fails until every rule has its pair.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use config::{Scoping, WALK};
use rules::{Callers, Finding};
use source::SourceFile;

/// The outcome of a lint run.
#[derive(Debug)]
pub struct RunResult {
    /// All findings (suppressed and not), sorted by path/line/col/rule.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl RunResult {
    /// Findings not covered by an `allow(...)` — the CI-gating set.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }
}

/// Lints every file under `root` that [`WALK`] contains, each rule
/// where `scoping` puts it. File order (and so finding order) is
/// deterministic.
pub fn run_workspace(root: &Path, scoping: Scoping) -> Result<RunResult, String> {
    let files = walk(root)?;
    lint_files(&files, &files, scoping)
}

/// Lints an explicit file list (paths relative to `root`); `dead-pub`
/// still counts callers over the whole walk.
pub fn run_files(root: &Path, scoping: Scoping, paths: &[String]) -> Result<RunResult, String> {
    let rel: Vec<(String, PathBuf)> = paths
        .iter()
        .map(|p| (p.replace('\\', "/"), root.join(p)))
        .collect();
    lint_files(&rel, &walk(root)?, scoping)
}

/// The files [`WALK`] contains, as sorted (relative, absolute) path
/// pairs.
fn walk(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut files = Vec::new();
    for r in WALK.include {
        collect_rs_files(&root.join(r), &mut files)?;
    }
    let mut rel: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| {
            let r = rel_path(root, &p)?;
            WALK.contains(&r).then_some((r, p))
        })
        .collect();
    rel.sort();
    rel.dedup();
    Ok(rel)
}

/// Lints `rel`, with the callers `dead-pub` reads indexed over `walk`.
fn lint_files(
    rel: &[(String, PathBuf)],
    walk: &[(String, PathBuf)],
    scoping: Scoping,
) -> Result<RunResult, String> {
    let read = |abs: &PathBuf| {
        std::fs::read_to_string(abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))
    };
    let mut callers = Callers::default();
    for (rel_path, abs) in walk {
        callers.add(&SourceFile::new(rel_path.clone(), &read(abs)?));
    }
    let mut findings = Vec::new();
    for (rel_path, abs) in rel {
        let text = read(abs)?;
        let file = SourceFile::new(rel_path.clone(), &text);
        findings.extend(rules::lint_file(&file, scoping, &callers, None));
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
    });
    Ok(RunResult {
        findings,
        files_scanned: rel.len(),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            // `target/` can appear anywhere cargo runs; never descend.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, p: &Path) -> Option<String> {
    let r = p.strip_prefix(root).ok()?;
    let s = r.to_str()?;
    Some(s.replace('\\', "/"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree with every walk root and `files` in it.
    fn scratch(name: &str, files: &[(&str, &str)]) -> PathBuf {
        let root = std::env::temp_dir().join("alc_lint_lib_test").join(name);
        let _ = std::fs::remove_dir_all(&root);
        for r in WALK.include {
            std::fs::create_dir_all(root.join(r)).unwrap();
        }
        for (path, text) in files {
            let file = root.join(path);
            std::fs::create_dir_all(file.parent().unwrap()).unwrap();
            std::fs::write(file, text).unwrap();
        }
        root
    }

    #[test]
    fn walks_sorted_and_respects_excludes() {
        let root = scratch(
            "walk",
            &[
                ("crates/core/src/b.rs", "use std::collections::HashMap;\n"),
                ("crates/core/src/a.rs", "fn ok() {}\n"),
                ("crates/lint/tests/fixtures/bad.rs", "use std::collections::HashSet;\n"),
            ],
        );
        let res = run_workspace(&root, |r| r.scopes).unwrap();
        assert_eq!(res.files_scanned, 2, "fixtures must be excluded");
        let uns: Vec<_> = res.unsuppressed().collect();
        assert_eq!(uns.len(), 1);
        assert_eq!(uns[0].path, "crates/core/src/b.rs");
    }

    #[test]
    fn suppressed_findings_do_not_gate() {
        let root = scratch(
            "suppress",
            &[(
                "crates/core/src/a.rs",
                "use std::collections::HashMap; // alc-lint: allow(hash-container, reason=\"lookup only\")\n",
            )],
        );
        let res = run_workspace(&root, |r| r.scopes).unwrap();
        assert_eq!(res.findings.len(), 1);
        assert_eq!(res.unsuppressed().count(), 0);
    }

    #[test]
    fn dead_pub_callers_are_other_files_and_integration_tests() {
        let root = scratch(
            "dead-pub",
            &[
                (
                    "crates/core/src/lib.rs",
                    "pub fn unit_only() {}\npub fn reexported() {}\npub fn from_test() {}\n\
                     pub fn from_example() {}\npub fn from_bench() {}\npub(crate) fn crate_only() {}\n\
                     #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::unit_only(); }\n}\n",
                ),
                ("crates/core/tests/t.rs", "#[test]\nfn t() { a::from_test(); }\n"),
                ("examples/e.rs", "pub use a::reexported;\nfn main() { a::from_example(); }\n"),
                ("benchmark/src/b.rs", "fn run() { a::from_bench(); }\n"),
            ],
        );
        let fired = |res: RunResult| -> Vec<String> {
            res.unsuppressed().map(|f| f.message.clone()).collect()
        };
        let want = [
            "`pub fn unit_only` has no caller outside its own file",
            "`pub fn reexported` has no caller outside its own file",
        ];
        assert_eq!(fired(run_workspace(&root, |r| r.scopes).unwrap()), want);
        let one = ["crates/core/src/lib.rs".to_string()];
        assert_eq!(fired(run_files(&root, |r| r.scopes, &one).unwrap()), want);
    }
}
