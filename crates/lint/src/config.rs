//! Where `alc-lint` looks: the files the workspace walk reads and the
//! named scopes the rules bind.
//!
//! A scope is a `const` [`Scope`] of repo-relative path prefixes; a rule
//! names the scopes it binds in its [`crate::rules::RULES`] row, so a
//! rule can neither be left unbound nor bound to a scope that does not
//! exist. `alc-lint --rules` prints every rule with its scopes and every
//! scope with its paths.

use crate::rules::Rule;

/// A named path filter: repo-relative prefixes to include and exclude.
///
/// A file matches when any `include` entry is a prefix of its
/// forward-slash repo-relative path and no `exclude` entry is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scope {
    /// Name shown by `alc-lint --rules`.
    pub name: &'static str,
    /// Path prefixes that bring a file into the set.
    pub include: &'static [&'static str],
    /// Path prefixes carved back out.
    pub exclude: &'static [&'static str],
}

impl Scope {
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

/// What `--workspace` walks; `suppression-hygiene` binds all of it.
/// `examples`, `tests` and `benchmark/src` are walked for the callers
/// `dead-pub` counts; no token rule's scope reaches them. Fixtures
/// deliberately violate rules.
pub const WALK: Scope = Scope {
    name: "workspace",
    include: &["crates", "src", "examples", "tests", "benchmark/src"],
    exclude: &["crates/lint/tests/fixtures"],
};

/// Simulation paths: everything a deterministic run executes. The one
/// real-time component (`gate.rs`, the wall-clock admission gate —
/// documented as "the simulator does not use this") and the CLI bin are
/// carved out.
pub(crate) const SIM: Scope = Scope {
    name: "sim",
    include: &[
        "crates/core/src",
        "crates/des/src",
        "crates/tpsim/src",
        "crates/analytic/src",
        "crates/scenario/src",
        "crates/trace/src",
    ],
    exclude: &["crates/core/src/gate.rs", "crates/scenario/src/bin"],
};

/// RNG discipline applies to the whole tree except the one sanctioned
/// home for construction/seeding: `alc_des::rng` (`SeedFactory`/`RngStream`).
pub(crate) const RNG_DISCIPLINE: Scope = Scope {
    name: "rng-discipline",
    include: &["crates", "src"],
    exclude: &["crates/des/src/rng.rs", "crates/lint"],
};

/// Zero-alloc steady-state modules: the event calendar, the whole
/// transaction engine + CC protocol layer, and its control loop. The
/// counting-allocator tests prove executed paths allocation-free; this
/// scope makes the claim static. Construction/reset-time allocation is
/// fine — allow() it.
pub(crate) const HOT: Scope = Scope {
    name: "hot",
    include: &[
        "crates/des/src/calendar.rs",
        "crates/tpsim/src/engine",
        "crates/tpsim/src/cc",
        "crates/tpsim/src/client.rs",
        "crates/trace/src",
        "crates/core/src/control.rs",
        "crates/core/src/telemetry.rs",
    ],
    exclude: &[],
};

/// Pure policy code, both crates' control laws included: decisions
/// must be functions of their observations alone. The purity rules and
/// the wall-clock and sleep rules bind it. No suppressions are tolerated
/// here (`workspace_clean.rs` greps for them).
pub const PURITY: Scope = Scope {
    name: "purity",
    include: &[
        "crates/core/src/controller",
        "crates/core/src/estimator",
        "crates/core/src/meta",
        "crates/core/src/law",
        "crates/runtime/src/law",
    ],
    exclude: &[],
};

/// The runtime's real-time shell: the embeddable `ControlLoop` around
/// `alc-core`'s `LoopCore`. It legitimately reads the wall clock (that
/// is its job), but each such site must carry a reasoned allow — replay,
/// the log and the metrics must never need one.
pub(crate) const RUNTIME_SHELL: Scope = Scope {
    name: "runtime-shell",
    include: &["crates/runtime/src"],
    exclude: &["crates/runtime/src/law"],
};

/// Library code: crate sources minus the CLI bins (bins may unwrap on
/// startup; tests live outside `src/` and are out of scope).
pub(crate) const LIB: Scope = Scope {
    name: "lib",
    include: &[
        "crates/core/src",
        "crates/des/src",
        "crates/tpsim/src",
        "crates/analytic/src",
        "crates/scenario/src",
        "crates/lint/src",
        "crates/runtime/src",
        "crates/trace/src",
        "src",
    ],
    exclude: &["crates/scenario/src/bin", "crates/lint/src/main.rs"],
};

/// Crate sources: where `dead-pub` looks for `pub` items.
pub(crate) const CRATE_SRC: Scope = Scope {
    name: "crate-src",
    include: &[
        "crates/analytic/src",
        "crates/core/src",
        "crates/des/src",
        "crates/lint/src",
        "crates/runtime/src",
        "crates/scenario/src",
        "crates/tpsim/src",
        "crates/trace/src",
    ],
    exclude: &[],
};

/// Where each rule applies: its row's `scopes` in a real run
/// (`|r| r.scopes`); the fixture and unit tests put every rule on a tree
/// of their own.
pub type Scoping = fn(&Rule) -> &'static [Scope];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::rule;

    #[test]
    fn path_set_prefix_semantics() {
        assert!(SIM.contains("crates/des/src/rng.rs"));
        assert!(SIM.contains("crates/core/src/meta/mod.rs"));
        assert!(!SIM.contains("crates/core/src/gate.rs"));
        assert!(!SIM.contains("crates/des/src-other/x.rs"));
        assert!(!SIM.contains("crates/bench/src/lib.rs"));
        assert!(HOT.contains("crates/des/src/calendar.rs"));
        assert!(!HOT.contains("crates/des/src/calendar.rs.bak"));
    }

    #[test]
    fn rules_may_bind_a_union_of_scopes() {
        let wall_clock = rule("wall-clock").expect("registered");
        let in_scope = |path| wall_clock.scopes.iter().any(|s| s.contains(path));
        assert!(in_scope("crates/des/src/calendar.rs"));
        assert!(in_scope("crates/runtime/src/control.rs"));
        assert!(in_scope("crates/runtime/src/law/aimd.rs"));
        assert!(!in_scope("crates/core/src/gate.rs"));
    }
}
