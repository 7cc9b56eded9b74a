//! `lint.toml` — the checked-in configuration.
//!
//! The analyzer is dependency-free, so this module hand-parses the TOML
//! subset the config needs: `[section]` / `[section.sub]` headers,
//! `key = "string"`, `key = ["a", "b"]`, `key = true|false`, and `#`
//! comments. Anything outside that subset is a hard error — config typos
//! must never silently relax a rule.
//!
//! Shape:
//!
//! ```toml
//! [workspace]
//! roots   = ["crates", "src"]
//! exclude = ["crates/lint/tests/fixtures"]
//!
//! [scopes.sim]
//! include = ["crates/des/src"]
//! exclude = ["crates/core/src/gate.rs"]
//!
//! [rules.hash-container]
//! scope = "sim"                 # file set the rule applies to
//! include-tests = false         # default: skip #[cfg(test)]/#[test] regions
//!
//! [rules.wall-clock]
//! scopes = ["sim", "runtime-shell"]  # a rule may bind a union of scopes
//! ```

use std::collections::BTreeMap;

/// A path filter: repo-relative prefixes to include and exclude.
///
/// A file matches when any `include` entry is a prefix of its
/// forward-slash repo-relative path and no `exclude` entry is.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathSet {
    /// Path prefixes that bring a file into the set.
    pub include: Vec<String>,
    /// Path prefixes carved back out.
    pub exclude: Vec<String>,
}

impl PathSet {
    /// Whether `path` (repo-relative, `/`-separated) is in the set.
    pub fn contains(&self, path: &str) -> bool {
        self.include.iter().any(|p| prefix_match(p, path))
            && !self.exclude.iter().any(|p| prefix_match(p, path))
    }
}

/// Prefix match on path components: `crates/des` matches
/// `crates/des/src/rng.rs` but not `crates/des-extra/x.rs`.
fn prefix_match(prefix: &str, path: &str) -> bool {
    path == prefix
        || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

/// Per-rule configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleConfig {
    /// Names of the scopes (from `[scopes.*]`) the rule applies to: a
    /// file is linted when *any* of them contains it. Populated by
    /// either `scope = "name"` or `scopes = ["a", "b"]`.
    pub scopes: Vec<String>,
    /// Run the rule inside `#[cfg(test)]` / `#[test]` regions too.
    pub include_tests: bool,
}

impl RuleConfig {
    /// Whether `path` is in any of the rule's scopes.
    pub fn in_scope(&self, cfg: &Config, path: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| cfg.scopes.get(s).is_some_and(|set| set.contains(path)))
    }
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    /// Directories walked by `--workspace`, repo-relative.
    pub roots: Vec<String>,
    /// Paths never linted (fixtures, vendored shims).
    pub exclude: Vec<String>,
    /// Named file sets referenced by rules.
    pub scopes: BTreeMap<String, PathSet>,
    /// Rule name → configuration. Every rule the binary knows must be
    /// present (checked in [`crate::rules::check_config`]).
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Parses the config, validating structure but not rule names (the
    /// rule registry does that, so the error can list what exists).
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Vec<String> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let inner = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
                section = inner.split('.').map(|s| s.trim().to_string()).collect();
                if section.iter().any(String::is_empty) {
                    return Err(format!("line {lineno}: empty section name in `{line}`"));
                }
                match section[0].as_str() {
                    "workspace" if section.len() == 1 => {}
                    "scopes" | "rules" if section.len() == 2 => {}
                    _ => {
                        return Err(format!(
                            "line {lineno}: unknown section `[{}]` (want [workspace], \
                             [scopes.<name>] or [rules.<rule>])",
                            section.join(".")
                        ));
                    }
                }
                continue;
            }
            let (key, value) = parse_kv(line, lineno)?;
            cfg.apply(&section, &key, value, lineno)?;
        }
        if cfg.roots.is_empty() {
            return Err("[workspace] roots must list at least one directory".to_string());
        }
        for (name, rule) in &cfg.rules {
            if rule.scopes.is_empty() {
                return Err(format!("rule `{name}` binds no scope"));
            }
            for scope in &rule.scopes {
                if !cfg.scopes.contains_key(scope) {
                    return Err(format!("rule `{name}` references unknown scope `{scope}`"));
                }
            }
        }
        Ok(cfg)
    }

    fn apply(
        &mut self,
        section: &[String],
        key: &str,
        value: Value,
        lineno: usize,
    ) -> Result<(), String> {
        let fail = |what: &str| Err(format!("line {lineno}: {what}"));
        match section.first().map(String::as_str) {
            Some("workspace") => match key {
                "roots" => self.roots = value.into_strings(lineno)?,
                "exclude" => self.exclude = value.into_strings(lineno)?,
                _ => return fail(&format!("unknown [workspace] key `{key}`")),
            },
            Some("scopes") => {
                let scope = self.scopes.entry(section[1].clone()).or_default();
                match key {
                    "include" => scope.include = value.into_strings(lineno)?,
                    "exclude" => scope.exclude = value.into_strings(lineno)?,
                    _ => return fail(&format!("unknown scope key `{key}`")),
                }
            }
            Some("rules") => {
                let rule = self.rules.entry(section[1].clone()).or_default();
                match key {
                    "scope" => rule.scopes = vec![value.into_string(lineno)?],
                    "scopes" => rule.scopes = value.into_strings(lineno)?,
                    "include-tests" => rule.include_tests = value.into_bool(lineno)?,
                    _ => return fail(&format!("unknown rule key `{key}`")),
                }
            }
            _ => return fail(&format!("key `{key}` outside any section")),
        }
        Ok(())
    }
}

enum Value {
    Str(String),
    List(Vec<String>),
    Bool(bool),
}

impl Value {
    fn into_string(self, lineno: usize) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("line {lineno}: expected a quoted string")),
        }
    }
    fn into_strings(self, lineno: usize) -> Result<Vec<String>, String> {
        match self {
            Value::List(v) => Ok(v),
            _ => Err(format!("line {lineno}: expected an array of strings")),
        }
    }
    fn into_bool(self, lineno: usize) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(b),
            _ => Err(format!("line {lineno}: expected true or false")),
        }
    }
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_kv(line: &str, lineno: usize) -> Result<(String, Value), String> {
    let (key, rest) = line
        .split_once('=')
        .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
    let key = key.trim().to_string();
    let rest = rest.trim();
    let value = if rest == "true" {
        Value::Bool(true)
    } else if rest == "false" {
        Value::Bool(false)
    } else if let Some(inner) = rest.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("line {lineno}: unterminated array (one line per array)"))?;
        let mut items = Vec::new();
        for piece in split_top_level_commas(inner) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            items.push(unquote(piece, lineno)?);
        }
        Value::List(items)
    } else {
        Value::Str(unquote(rest, lineno)?)
    };
    Ok((key, value))
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn unquote(s: &str, lineno: usize) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("line {lineno}: expected a quoted string, got `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[workspace]
roots = ["crates", "src"]      # trailing comment
exclude = ["crates/lint/tests/fixtures"]

[scopes.sim]
include = ["crates/des/src", "crates/core/src"]
exclude = ["crates/core/src/gate.rs"]

[rules.hash-container]
scope = "sim"

[rules.unwrap-in-lib]
scope = "sim"
include-tests = false
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.roots, vec!["crates", "src"]);
        assert_eq!(cfg.scopes["sim"].include.len(), 2);
        assert_eq!(cfg.rules["hash-container"].scopes, vec!["sim"]);
        assert!(!cfg.rules["unwrap-in-lib"].include_tests);
    }

    #[test]
    fn path_set_prefix_semantics() {
        let cfg = Config::parse(SAMPLE).unwrap();
        let sim = &cfg.scopes["sim"];
        assert!(sim.contains("crates/des/src/rng.rs"));
        assert!(sim.contains("crates/core/src/meta/mod.rs"));
        assert!(!sim.contains("crates/core/src/gate.rs"));
        assert!(!sim.contains("crates/des/src-other/x.rs"));
        assert!(!sim.contains("crates/bench/src/lib.rs"));
    }

    #[test]
    fn rejects_unknown_sections_keys_and_scopes() {
        assert!(Config::parse("[nope]\nx = \"y\"").is_err());
        assert!(Config::parse("[workspace]\nroots = [\"a\"]\nbogus = \"y\"").is_err());
        let dangling = "[workspace]\nroots = [\"a\"]\n[rules.x]\nscope = \"missing\"";
        let err = Config::parse(dangling).unwrap_err();
        assert!(err.contains("unknown scope"), "{err}");
        let scopeless = "[workspace]\nroots = [\"a\"]\n[rules.x]\ninclude-tests = true";
        let err = Config::parse(scopeless).unwrap_err();
        assert!(err.contains("binds no scope"), "{err}");
        // A file leaves a rule's reach through its scope or an inline
        // allow; a stale per-rule `exclude` fails loudly.
        let stale = "[workspace]\nroots = [\"a\"]\n[scopes.s]\ninclude = [\"a\"]\n\
                     [rules.x]\nscope = \"s\"\nexclude = [\"a/b.rs\"]\n";
        let err = Config::parse(stale).unwrap_err();
        assert!(err.contains("unknown rule key `exclude`"), "{err}");
    }

    #[test]
    fn rules_may_bind_a_union_of_scopes() {
        let cfg = Config::parse(
            "[workspace]\nroots = [\"crates\"]\n\
             [scopes.a]\ninclude = [\"crates/a\"]\n\
             [scopes.b]\ninclude = [\"crates/b\"]\n\
             [rules.wall-clock]\nscopes = [\"a\", \"b\"]\n",
        )
        .unwrap();
        let rc = &cfg.rules["wall-clock"];
        assert!(rc.in_scope(&cfg, "crates/a/src/x.rs"));
        assert!(rc.in_scope(&cfg, "crates/b/src/y.rs"));
        assert!(!rc.in_scope(&cfg, "crates/c/src/z.rs"));
    }

    #[test]
    fn rejects_unquoted_and_unterminated_values() {
        assert!(Config::parse("[workspace]\nroots = [bare]").is_err());
        assert!(Config::parse("[workspace]\nroots = [\"a\"").is_err());
        assert!(Config::parse("[workspace]\nroots = \"not-a-list\"").is_err());
        assert!(Config::parse("no_section = \"x\"").is_err());
    }

    #[test]
    fn empty_roots_is_an_error() {
        assert!(Config::parse("[scopes.s]\ninclude = [\"a\"]").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("[workspace]\nroots = [\"cr#ates\"]").unwrap();
        assert_eq!(cfg.roots, vec!["cr#ates"]);
    }
}
