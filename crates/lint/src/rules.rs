//! The rule registry and token matchers.
//!
//! Every rule is a token pattern evaluated inside the file scopes its
//! [`RULES`] row names (the `const` [`Scope`]s in [`crate::config`]).
//! Four families guard the properties the test suite can only check
//! dynamically:
//!
//! * **determinism** — simulation paths must not observe hash-container
//!   iteration order, wall clocks, sleeps, or the environment;
//! * **rng** — randomness is constructed in `alc_des::rng` only, and
//!   never from ad-hoc integer seed literals;
//! * **hot-path** — modules on the zero-alloc steady-state path must not
//!   allocate (complementing the counting-allocator gates, which only
//!   see executed paths);
//! * **purity** — `controller/`, `estimator/`, `meta/` and the runtime's
//!   `law/` stay free of RNG, I/O and global state (the determinism
//!   rules keep clocks and sleeps out of them too);
//!
//! plus **hygiene**: `unwrap`/`panic!` policy in library code, and the
//! suppression system policing itself; and **minimal**: a plain-`pub`
//! item needs a caller outside its own file ([`Callers`]).

use std::collections::BTreeMap;

use crate::config::{
    Scope, Scoping, CRATE_SRC, HOT, LIB, PURITY, RNG_DISCIPLINE, RUNTIME_SHELL, SIM, WALK,
};
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Rule id, as used in `allow(...)`.
    pub name: &'static str,
    /// Rule family (diagnostic prefix, report grouping).
    pub family: &'static str,
    /// One-line description, listed by [`listing`] (`--rules`, and
    /// README's block that `tests/workspace_clean.rs` checks).
    pub summary: &'static str,
    /// Remediation hint appended to diagnostics.
    pub help: &'static str,
    /// The file sets the rule applies to: a file is linted when *any*
    /// of them contains it. Token rules skip `#[cfg(test)]` / `#[test]`
    /// regions; `suppression-hygiene` reads every allow, tests included.
    pub scopes: &'static [Scope],
}

/// What `alc-lint --rules` prints, and the block README holds: every
/// rule with its family, scopes and summary, then each scope's paths.
pub fn listing() -> String {
    let mut out = String::new();
    let mut scopes: Vec<Scope> = Vec::new();
    for r in RULES {
        let names: Vec<&str> = r.scopes.iter().map(|s| s.name).collect();
        let names = names.join(", ");
        out += &format!("{:<20} {:<12} {names:<27} {}\n", r.name, r.family, r.summary);
        for s in r.scopes {
            if !scopes.contains(s) {
                scopes.push(*s);
            }
        }
    }
    out.push('\n');
    for s in scopes {
        out += &format!("{:<15} {}", s.name, s.include.join(" "));
        if !s.exclude.is_empty() {
            out += &format!(" except {}", s.exclude.join(" "));
        }
        out.push('\n');
    }
    out
}

/// Every rule the binary knows, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-container",
        family: "determinism",
        summary: "no HashMap/HashSet in simulation paths (iteration order is nondeterministic)",
        help: "use a BTreeMap/BTreeSet or a direct-indexed table",
        scopes: &[SIM],
    },
    Rule {
        name: "wall-clock",
        family: "determinism",
        summary: "no Instant/SystemTime in simulation paths (simulated time only)",
        help: "thread simulated time through explicitly; wall clocks break replayability",
        scopes: &[SIM, RUNTIME_SHELL, PURITY],
    },
    Rule {
        name: "sleep",
        family: "determinism",
        summary: "no thread::sleep (or any `…::sleep` path) in simulation paths",
        help: "schedule a calendar event instead of blocking the thread",
        scopes: &[SIM, RUNTIME_SHELL, PURITY],
    },
    Rule {
        name: "env-read",
        family: "determinism",
        summary: "no std::env reads in simulation paths (runs must be spec-determined)",
        help: "plumb configuration through the spec/config structs",
        scopes: &[SIM, RUNTIME_SHELL],
    },
    Rule {
        name: "rng-construction",
        family: "rng",
        summary: "RNG construction/seeding only inside alc_des::rng",
        help: "derive a stream from a SeedFactory substream instead",
        scopes: &[RNG_DISCIPLINE],
    },
    Rule {
        name: "seed-literal",
        family: "rng",
        summary: "no integer seed literals outside tests",
        help: "seeds come from config/replication plumbing, not literals",
        scopes: &[RNG_DISCIPLINE],
    },
    Rule {
        name: "hot-alloc",
        family: "hot-path",
        summary: "no allocation tokens (Vec::new, vec!, format!, to_vec, to_owned, collect, Box::new) in hot modules",
        help: "reuse pooled scratch buffers, or allow() construction-time allocation with a reason",
        scopes: &[HOT],
    },
    Rule {
        name: "purity-rng",
        family: "purity",
        summary: "controllers/estimators/meta policies take no randomness",
        help: "policy decisions must be a pure function of their observations",
        scopes: &[PURITY],
    },
    Rule {
        name: "purity-io",
        family: "purity",
        summary: "controllers/estimators/meta policies do no I/O",
        help: "return data; let the caller decide what to print or persist",
        scopes: &[PURITY],
    },
    Rule {
        name: "purity-global-state",
        family: "purity",
        summary: "controllers/estimators/meta policies hold no global or shared mutable state",
        help: "state lives in the policy struct so instances stay independent",
        scopes: &[PURITY],
    },
    Rule {
        name: "unwrap-in-lib",
        family: "hygiene",
        summary: "no .unwrap() in library code (tests/bins exempt)",
        help: "return a Result, or .expect(\"why this cannot fail\")",
        scopes: &[LIB],
    },
    Rule {
        name: "panic-in-lib",
        family: "hygiene",
        summary: "no panic!/todo!/unimplemented!/unreachable! in library code",
        help: "return an error; assert!/debug_assert! remain available for invariants",
        scopes: &[LIB],
    },
    Rule {
        name: "suppression-hygiene",
        family: "hygiene",
        summary: "allow() directives need a reason, a known rule, and a finding to suppress",
        help: "fix the directive or delete it",
        scopes: &[WALK],
    },
    Rule {
        name: "dead-pub",
        family: "minimal",
        summary: "a plain-pub fn/const/static in crate sources is named by another file's non-test code or an integration test",
        help: "delete it if only its unit tests call it; drop `pub` if its own file does",
        scopes: &[CRATE_SRC],
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// One finding, suppressed or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Repo-relative file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found.
    pub message: String,
    /// `Some(reason)` when an `allow(...)` covered it.
    pub suppressed: Option<String>,
}

/// Which files name which identifiers, over the whole walk: what
/// `dead-pub` counts as a caller. A file contributes its non-test code;
/// an integration-test file (`tests/`, `crates/*/tests/`) all of it.
/// `use` statements, comments and string literals name nothing.
#[derive(Debug, Default)]
pub struct Callers {
    /// Identifier → the first two distinct files naming it: enough to
    /// tell whether any file other than a given one does.
    names: BTreeMap<String, Vec<String>>,
}

impl Callers {
    /// Records the identifiers `file` names.
    pub fn add(&mut self, file: &SourceFile<'_>) {
        let whole = file.path.starts_with("tests/")
            || file
                .path
                .strip_prefix("crates/")
                .and_then(|p| p.split('/').nth(1))
                == Some("tests");
        let mut in_use = false;
        for t in &file.lexed.tokens {
            if in_use {
                in_use = t.text != ";";
                continue;
            }
            if t.kind != TokKind::Ident || (!whole && file.in_test_region(t.line)) {
                continue;
            }
            if t.text == "use" {
                in_use = true;
                continue;
            }
            let files = self.names.entry(t.text.to_string()).or_default();
            if files.len() < 2 && !files.contains(&file.path) {
                files.push(file.path.clone());
            }
        }
    }

    /// Whether a file other than `path` names `name`.
    fn outside(&self, name: &str, path: &str) -> bool {
        self.names
            .get(name)
            .is_some_and(|files| files.iter().any(|f| f != path))
    }
}

/// Runs every rule whose scopes (per `scoping`) contain the file. `only`
/// restricts to a single rule (fixture tests); `None` runs all.
/// `callers` is the index of the whole walk, which `dead-pub` reads.
pub fn lint_file(
    file: &SourceFile<'_>,
    scoping: Scoping,
    callers: &Callers,
    only: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut hygiene = false;
    for r in RULES {
        let in_scope = scoping(r).iter().any(|s| s.contains(&file.path));
        if !in_scope || only.is_some_and(|o| o != r.name) {
            continue;
        }
        if r.name == "suppression-hygiene" {
            hygiene = true;
            continue;
        }
        let toks: Vec<&Token<'_>> = file
            .lexed
            .tokens
            .iter()
            .filter(|t| !file.in_test_region(t.line))
            .collect();
        scan_rule(r.name, &toks, &file.path, callers, &mut findings);
    }

    apply_suppressions(file, hygiene, &mut findings);
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Matches inline `allow(...)` directives against the findings, then
/// reports the suppression system's own violations.
fn apply_suppressions(file: &SourceFile<'_>, hygiene_enabled: bool, findings: &mut Vec<Finding>) {
    let mut used = vec![false; file.suppressions.len()];
    for f in findings.iter_mut() {
        for (i, s) in file.suppressions.iter().enumerate() {
            if s.rule == f.rule && s.target_line == f.line {
                f.suppressed = Some(s.reason.clone());
                used[i] = true;
            }
        }
    }
    if !hygiene_enabled {
        return;
    }
    let mut hygiene: Vec<Finding> = Vec::new();
    for issue in &file.suppression_issues {
        hygiene.push(Finding {
            rule: "suppression-hygiene",
            path: file.path.clone(),
            line: issue.line,
            col: 1,
            message: issue.message.clone(),
            suppressed: None,
        });
    }
    for (i, s) in file.suppressions.iter().enumerate() {
        if rule(&s.rule).is_none() {
            hygiene.push(Finding {
                rule: "suppression-hygiene",
                path: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!("allow() names unknown rule `{}`", s.rule),
                suppressed: None,
            });
        } else if !used[i] && s.rule != "suppression-hygiene" {
            hygiene.push(Finding {
                rule: "suppression-hygiene",
                path: file.path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "unused suppression: no `{}` finding on line {}",
                    s.rule, s.target_line
                ),
                suppressed: None,
            });
        }
    }
    // Hygiene findings are themselves suppressible — uniformity keeps the
    // fixture contract (“every rule provably suppressible”) honest.
    for f in &mut hygiene {
        for s in &file.suppressions {
            if s.rule == "suppression-hygiene" && s.target_line == f.line && s.line != f.line {
                f.suppressed = Some(s.reason.clone());
            }
        }
    }
    findings.append(&mut hygiene);
}

/// Dispatches one rule's token scan.
fn scan_rule(
    name: &'static str,
    toks: &[&Token<'_>],
    path: &str,
    callers: &Callers,
    out: &mut Vec<Finding>,
) {
    let mut push = |t: &Token<'_>, message: String| {
        out.push(Finding {
            rule: name,
            path: path.to_string(),
            line: t.line,
            col: t.col,
            message,
            suppressed: None,
        });
    };
    let ident = |i: usize, s: &str| -> bool {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    };
    let punct = |i: usize, s: &str| -> bool {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };

    for i in 0..toks.len() {
        let t = toks[i];
        let is_ident = t.kind == TokKind::Ident;
        match name {
            "hash-container"
                if is_ident && (t.text == "HashMap" || t.text == "HashSet") => {
                    push(t, format!("`{}` in a determinism-scoped module", t.text));
                }
            "wall-clock"
                if is_ident && matches!(t.text, "Instant" | "SystemTime" | "UNIX_EPOCH") => {
                    push(t, format!("wall-clock type `{}` in a simulation path", t.text));
                }
            // Any path ending in `sleep`: `use std::thread as t;` makes it
            // `t::sleep`.
            "sleep"
                if is_ident && t.text == "sleep" && i >= 2 && punct(i - 1, "::") => {
                    push(t, format!("`{}::sleep` in a simulation path", toks[i - 2].text));
                }
            "env-read"
                if is_ident && t.text == "env" && punct(i + 1, "::") => {
                    let what = toks.get(i + 2).map_or("?", |x| x.text);
                    push(t, format!("environment access `env::{what}` in a simulation path"));
                }
            "rng-construction"
                if is_ident
                    && matches!(
                        t.text,
                        "SmallRng"
                            | "StdRng"
                            | "ThreadRng"
                            | "OsRng"
                            | "thread_rng"
                            | "from_entropy"
                            | "SeedableRng"
                            | "seed_from_u64"
                    )
                => {
                    push(
                        t,
                        format!("RNG construction `{}` outside alc_des::rng", t.text),
                    );
                }
            "seed-literal"
                if t.kind == TokKind::Int && i >= 2 && punct(i - 1, "(") => {
                    let callee = toks[i - 2];
                    let literal_call = (callee.kind == TokKind::Ident
                        && matches!(callee.text, "from_seed" | "seed_from_u64"))
                        || (ident(i - 2, "new")
                            && i >= 4
                            && punct(i - 3, "::")
                            && ident(i - 4, "SeedFactory"));
                    if literal_call {
                        push(
                            t,
                            format!("integer seed literal `{}` passed to `{}`", t.text, callee.text),
                        );
                    }
                }
            "hot-alloc" => {
                if is_ident
                    && matches!(t.text, "Vec" | "Box" | "String")
                    && punct(i + 1, "::")
                    && ident(i + 2, "new")
                {
                    push(t, format!("`{}::new` in a hot-path module", t.text));
                } else if is_ident && matches!(t.text, "vec" | "format") && punct(i + 1, "!") {
                    push(t, format!("`{}!` in a hot-path module", t.text));
                } else if is_ident
                    && matches!(t.text, "to_vec" | "to_owned" | "to_string" | "collect")
                    && i >= 1
                    && punct(i - 1, ".")
                {
                    push(t, format!("allocating call `.{}()` in a hot-path module", t.text));
                }
            }
            "purity-rng"
                if is_ident
                    && matches!(
                        t.text,
                        "rand"
                            | "RngStream"
                            | "SeedFactory"
                            | "SmallRng"
                            | "StdRng"
                            | "ThreadRng"
                            | "thread_rng"
                            | "from_entropy"
                            | "seed_from_u64"
                            | "from_seed"
                    )
                => {
                    push(t, format!("randomness (`{}`) in a purity-scoped module", t.text));
                }
            "purity-io" => {
                if is_ident
                    && matches!(t.text, "println" | "print" | "eprintln" | "eprint" | "dbg")
                    && punct(i + 1, "!")
                {
                    push(t, format!("I/O macro `{}!` in a purity-scoped module", t.text));
                } else if is_ident
                    && matches!(t.text, "fs" | "io" | "net" | "process")
                    && i >= 2
                    && ident(i - 2, "std")
                    && punct(i - 1, "::")
                {
                    push(t, format!("`std::{}` in a purity-scoped module", t.text));
                } else if is_ident && matches!(t.text, "File" | "TcpStream" | "UdpSocket") {
                    push(t, format!("I/O type `{}` in a purity-scoped module", t.text));
                }
            }
            "purity-global-state" => {
                if is_ident && t.text == "static" {
                    push(t, "`static` item in a purity-scoped module".to_string());
                } else if is_ident
                    && (t.text.starts_with("Atomic")
                        || matches!(
                            t.text,
                            "thread_local"
                                | "OnceLock"
                                | "OnceCell"
                                | "LazyLock"
                                | "Mutex"
                                | "RwLock"
                                | "RefCell"
                                | "UnsafeCell"
                        ))
                {
                    push(
                        t,
                        format!("shared/global mutable state (`{}`) in a purity-scoped module", t.text),
                    );
                }
            }
            "unwrap-in-lib"
                if is_ident && t.text == "unwrap" && i >= 1 && punct(i - 1, ".") && punct(i + 1, "(")
                => {
                    push(t, "`.unwrap()` in library code".to_string());
                }
            "panic-in-lib"
                if is_ident
                    && matches!(t.text, "panic" | "todo" | "unimplemented" | "unreachable")
                    && punct(i + 1, "!")
                => {
                    push(t, format!("`{}!` in library code", t.text));
                }
            "dead-pub" if is_ident && t.text == "pub" && !punct(i + 1, "(") => {
                if let Some((kind, item)) = pub_item(&toks[i + 1..]) {
                    if !callers.outside(item.text, path) {
                        push(
                            item,
                            format!("`pub {kind} {}` has no caller outside its own file", item.text),
                        );
                    }
                }
            }
            // Rule names come from RULES, so this arm is never taken; a
            // silent no-op keeps the dispatcher panic-free (the linter
            // holds itself to `panic-in-lib`).
            _ => {}
        }
    }
}

/// The `fn` / `const` / `static` that follows a `pub`, with its name
/// token, past `const fn`, `unsafe`, `async`, `extern "C"` and
/// `static mut`; `None` for every other item (types, modules, fields).
fn pub_item<'a, 't>(toks: &[&'a Token<'t>]) -> Option<(&'static str, &'a Token<'t>)> {
    let qualifier = |t: Option<&&Token<'_>>| {
        t.is_some_and(|t| matches!(t.text, "fn" | "unsafe" | "async" | "extern"))
    };
    let mut j = 0;
    let kind = loop {
        let t = toks.get(j)?;
        j += 1;
        match t.text {
            "fn" => break "fn",
            "static" => break "static",
            "const" if !qualifier(toks.get(j)) => break "const",
            "const" | "unsafe" | "async" | "extern" => {}
            _ if t.kind == TokKind::Str => {}
            _ => return None,
        }
    };
    if kind == "static" && toks.get(j).is_some_and(|t| t.text == "mut") {
        j += 1;
    }
    let name = toks.get(j).filter(|t| t.kind == TokKind::Ident && t.text != "_")?;
    Some((kind, *name))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rule on `x.rs`, so any rule can fire.
    const X_RS: Scoping = |_| {
        &[Scope {
            name: "x",
            include: &["x.rs"],
            exclude: &[],
        }]
    };

    fn findings(src: &str, only: &str) -> Vec<Finding> {
        let f = SourceFile::new("x.rs".into(), src);
        lint_file(&f, X_RS, &Callers::default(), Some(only))
    }

    #[test]
    fn registry_and_config_stay_consistent() {
        assert!(RULES.len() >= 10, "the issue demands ≥10 rules");
        for (i, r) in RULES.iter().enumerate() {
            assert!(!r.scopes.is_empty(), "rule `{}` binds no scope", r.name);
            let twice = RULES[..i].iter().any(|o| o.name == r.name);
            assert!(!twice, "rule `{}` registered twice", r.name);
        }
    }

    #[test]
    fn hash_container_fires_on_use_and_import() {
        let f = findings("use std::collections::HashMap;\nlet s: HashSet<u8>;", "hash-container");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(findings(src, "hash-container").is_empty());
    }

    #[test]
    fn sleep_needs_the_thread_path() {
        assert_eq!(findings("std::thread::sleep(d);", "sleep").len(), 1);
        assert_eq!(findings("t::sleep(d);", "sleep").len(), 1);
        assert!(findings("my.sleep(d);", "sleep").is_empty());
    }

    #[test]
    fn seed_literal_catches_literal_seeds_only() {
        assert_eq!(findings("RngStream::from_seed(42)", "seed-literal").len(), 1);
        assert_eq!(findings("SeedFactory::new(7)", "seed-literal").len(), 1);
        assert!(findings("RngStream::from_seed(seed)", "seed-literal").is_empty());
        assert!(findings("SeedFactory::new(cfg.seed)", "seed-literal").is_empty());
        assert!(findings("numbered_stream(\"t\", 3)", "seed-literal").is_empty());
    }

    #[test]
    fn hot_alloc_catches_the_banned_set() {
        let src = "let a = Vec::new(); let b = vec![1]; let c = format!(\"x\");\n\
                   let d = xs.to_vec(); let e = s.to_owned(); let f: Vec<_> = it.collect();\n\
                   let g = Box::new(1); let h = n.to_string();";
        let f = findings(src, "hot-alloc");
        assert_eq!(f.len(), 8, "{f:?}");
        // `Vec::with_capacity` is allowed: preallocation is the pattern
        // the hot path is built on.
        assert!(findings("Vec::with_capacity(8)", "hot-alloc").is_empty());
    }

    #[test]
    fn purity_rules_fire_and_spare_pure_idioms() {
        assert_eq!(findings("let r = SeedFactory::new(s);", "purity-rng").len(), 1);
        // Clocks are `wall-clock`'s, which binds the purity scope too.
        assert_eq!(findings("let t = Instant::now();", "wall-clock").len(), 1);
        assert!(findings("use std::time::Duration;", "wall-clock").is_empty());
        assert_eq!(findings("println!(\"x\");", "purity-io").len(), 1);
        assert_eq!(findings("static X: u8 = 0;", "purity-global-state").len(), 1);
        assert_eq!(findings("let c = AtomicU64::new(0);", "purity-global-state").len(), 1);
        // `&'static str` is a lifetime, not a static item.
        assert!(findings("fn name(&self) -> &'static str { \"x\" }", "purity-global-state")
            .is_empty());
    }

    #[test]
    fn unwrap_and_panic_rules() {
        assert_eq!(findings("x.unwrap();", "unwrap-in-lib").len(), 1);
        assert!(findings("x.expect(\"why\");", "unwrap-in-lib").is_empty());
        assert!(findings("fn unwrap() {}", "unwrap-in-lib").is_empty());
        assert_eq!(findings("panic!(\"boom\");", "panic-in-lib").len(), 1);
        assert!(findings("assert!(ok);", "panic-in-lib").is_empty());
    }

    #[test]
    fn suppression_marks_findings_and_unused_allows_fire() {
        let src = "use std::collections::HashMap; // alc-lint: allow(hash-container, reason=\"lookup only\")\n";
        let f = SourceFile::new("x.rs".into(), src);
        let all = lint_file(&f, X_RS, &Callers::default(), None);
        let hc: Vec<_> = all.iter().filter(|x| x.rule == "hash-container").collect();
        assert_eq!(hc.len(), 1);
        assert_eq!(hc[0].suppressed.as_deref(), Some("lookup only"));
        assert!(all.iter().all(|x| x.rule != "suppression-hygiene"));

        let unused = "let x = 1; // alc-lint: allow(hash-container, reason=\"nothing here\")\n";
        let f = SourceFile::new("x.rs".into(), unused);
        let all = lint_file(&f, X_RS, &Callers::default(), None);
        assert!(all.iter().any(|x| x.rule == "suppression-hygiene"
            && x.message.contains("unused")));
    }

    #[test]
    fn dead_pub_reads_fn_const_and_static_items_only() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 0;\n\
                   pub static mut D: u8 = 0;\npub unsafe extern \"C\" fn e() {}\n\
                   pub(crate) fn f() {}\npub struct G { pub h: u8 }\npub const _: () = ();\n";
        let names: Vec<String> = findings(src, "dead-pub")
            .iter()
            .map(|f| f.message.clone())
            .collect();
        assert_eq!(
            names,
            [
                "`pub fn a` has no caller outside its own file",
                "`pub fn b` has no caller outside its own file",
                "`pub const C` has no caller outside its own file",
                "`pub static D` has no caller outside its own file",
                "`pub fn e` has no caller outside its own file",
            ]
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// HashMap in a comment\nlet s = \"HashMap::new()\";\n";
        assert!(findings(src, "hash-container").is_empty());
    }
}
