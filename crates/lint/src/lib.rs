//! `alc-lint` — repo-specific static analysis for the adaptive-load-
//! control workspace.
//!
//! The repo's guarantees (byte-identical goldens, serial == parallel
//! scenario runs, zero-alloc hot paths, pure controllers) are enforced
//! dynamically by tests — which only see the code paths they execute.
//! This crate turns the same invariants into *static* rules over the
//! whole source tree: a dependency-free token-level analyzer (no `syn`
//! in the vendored offline shim set) with a checked-in `lint.toml`
//! scoping rules to file sets, and inline
//! `// alc-lint: allow(rule, reason="…")` suppressions that require a
//! reason.
//!
//! Layers:
//! * [`lexer`] — the hand-rolled Rust lexer (tokens + comments);
//! * [`source`] — per-file context: test regions, suppressions;
//! * [`config`] — the `lint.toml` subset parser and path scoping;
//! * [`rules`] — the rule registry and token matchers;
//! * [`report`] — rustc-style text and JSON rendering.

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use config::Config;
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

/// Reads and validates `lint.toml` from `root`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    rules::check_config(&cfg)?;
    Ok(cfg)
}

/// Lints the whole workspace under `root` per the config's roots and
/// excludes. File order (and so finding order) is deterministic.
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<RunResult, String> {
    let files = walk(root, cfg)?;
    lint_files(&files, &files, cfg)
}

/// Lints an explicit file list (paths relative to `root`); `dead-pub`
/// still counts callers over the whole walk.
pub fn run_files(root: &Path, cfg: &Config, paths: &[String]) -> Result<RunResult, String> {
    let rel: Vec<(String, PathBuf)> = paths
        .iter()
        .map(|p| (p.replace('\\', "/"), root.join(p)))
        .collect();
    lint_files(&rel, &walk(root, cfg)?, cfg)
}

/// The config's roots minus its excludes, as sorted (relative, absolute)
/// path pairs.
fn walk(root: &Path, cfg: &Config) -> Result<Vec<(String, PathBuf)>, String> {
    let mut files = Vec::new();
    for r in &cfg.roots {
        let dir = root.join(r);
        if !dir.exists() {
            return Err(format!("workspace root `{r}` does not exist under {}", root.display()));
        }
        collect_rs_files(&dir, &mut files)?;
    }
    let mut rel: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| {
            let r = rel_path(root, &p)?;
            (!cfg.exclude.iter().any(|e| prefix(e, &r))).then_some((r, p))
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
    cfg: &Config,
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
        findings.extend(rules::lint_file(&file, cfg, &callers, None));
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
    if dir.is_file() {
        if dir.extension().is_some_and(|x| x == "rs") {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
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

fn prefix(prefix: &str, path: &str) -> bool {
    path == prefix
        || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("alc_lint_lib_test").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const CFG: &str = r#"
[workspace]
roots = ["src"]
exclude = ["src/skip"]
[scopes.all]
include = ["src"]
[scopes.none]
include = []
[scopes.crate-src]
include = ["crates/a/src"]
[rules.dead-pub]
scope = "crate-src"
[rules.hash-container]
scope = "all"
[rules.wall-clock]
scope = "all"
[rules.sleep]
scope = "all"
[rules.env-read]
scope = "none"
[rules.rng-construction]
scope = "none"
[rules.seed-literal]
scope = "none"
[rules.hot-alloc]
scope = "none"
[rules.purity-rng]
scope = "none"
[rules.purity-io]
scope = "none"
[rules.purity-global-state]
scope = "none"
[rules.unwrap-in-lib]
scope = "none"
[rules.panic-in-lib]
scope = "none"
[rules.suppression-hygiene]
scope = "all"
"#;

    #[test]
    fn walks_sorted_and_respects_excludes() {
        let root = scratch("walk");
        std::fs::create_dir_all(root.join("src/skip")).unwrap();
        std::fs::write(root.join("src/b.rs"), "use std::collections::HashMap;\n").unwrap();
        std::fs::write(root.join("src/a.rs"), "fn ok() {}\n").unwrap();
        std::fs::write(root.join("src/skip/bad.rs"), "use std::collections::HashSet;\n")
            .unwrap();
        std::fs::write(root.join("lint.toml"), CFG).unwrap();
        let cfg = load_config(&root).unwrap();
        let res = run_workspace(&root, &cfg).unwrap();
        assert_eq!(res.files_scanned, 2, "skip/ must be excluded");
        let uns: Vec<_> = res.unsuppressed().collect();
        assert_eq!(uns.len(), 1);
        assert_eq!(uns[0].path, "src/b.rs");
    }

    #[test]
    fn suppressed_findings_do_not_gate() {
        let root = scratch("suppress");
        std::fs::create_dir_all(root.join("src")).unwrap();
        std::fs::write(
            root.join("src/a.rs"),
            "use std::collections::HashMap; // alc-lint: allow(hash-container, reason=\"lookup only\")\n",
        )
        .unwrap();
        std::fs::write(root.join("lint.toml"), CFG).unwrap();
        let cfg = load_config(&root).unwrap();
        let res = run_workspace(&root, &cfg).unwrap();
        assert_eq!(res.findings.len(), 1);
        assert_eq!(res.unsuppressed().count(), 0);
    }

    #[test]
    fn dead_pub_callers_are_other_files_and_integration_tests() {
        let root = scratch("dead-pub");
        for (path, text) in [
            (
                "crates/a/src/lib.rs",
                "pub fn unit_only() {}\npub fn reexported() {}\npub fn from_test() {}\n\
                 pub fn from_example() {}\npub fn from_bench() {}\npub(crate) fn crate_only() {}\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::unit_only(); }\n}\n",
            ),
            ("crates/a/tests/t.rs", "#[test]\nfn t() { a::from_test(); }\n"),
            ("examples/e.rs", "pub use a::reexported;\nfn main() { a::from_example(); }\n"),
            ("benchmark/src/b.rs", "fn run() { a::from_bench(); }\n"),
        ] {
            let file = root.join(path);
            std::fs::create_dir_all(file.parent().unwrap()).unwrap();
            std::fs::write(file, text).unwrap();
        }
        let toml = CFG.replace(
            "roots = [\"src\"]",
            "roots = [\"crates\", \"examples\", \"benchmark/src\"]",
        );
        std::fs::write(root.join("lint.toml"), toml).unwrap();
        let cfg = load_config(&root).unwrap();
        let fired = |res: RunResult| -> Vec<String> {
            res.unsuppressed().map(|f| f.message.clone()).collect()
        };
        let want = [
            "`pub fn unit_only` has no caller outside its own file",
            "`pub fn reexported` has no caller outside its own file",
        ];
        assert_eq!(fired(run_workspace(&root, &cfg).unwrap()), want);
        let one = ["crates/a/src/lib.rs".to_string()];
        assert_eq!(fired(run_files(&root, &cfg, &one).unwrap()), want);
    }

    #[test]
    fn missing_rule_in_config_is_rejected() {
        let root = scratch("missing");
        std::fs::create_dir_all(root.join("src")).unwrap();
        let truncated = CFG.replace("[rules.panic-in-lib]\nscope = \"none\"\n", "");
        std::fs::write(root.join("lint.toml"), truncated).unwrap();
        let err = load_config(&root).unwrap_err();
        assert!(err.contains("panic-in-lib"), "{err}");
    }
}
