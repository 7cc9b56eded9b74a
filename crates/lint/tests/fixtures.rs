//! Per-rule fixture tests: every rule must provably (a) fire on its
//! `fire.rs` fixture and (b) be silenced by a reasoned `allow(...)` in
//! its `suppressed.rs` fixture. Rendered diagnostics are snapshot-
//! compared against the checked-in `*.expected` files; rebless with
//! `UPDATE_LINT_FIXTURES=1 cargo test -p alc-lint --test fixtures`.

use std::fmt::Write as _;
use std::path::PathBuf;

use alc_lint::config::Config;
use alc_lint::report::render_text;
use alc_lint::rules::{lint_file, Callers, Finding, RULES};
use alc_lint::source::SourceFile;

/// A config that puts the fixture tree in every rule's scope.
fn fixture_config() -> Config {
    let mut toml =
        String::from("[workspace]\nroots = [\".\"]\n[scopes.all]\ninclude = [\"fixtures\"]\n");
    for r in RULES {
        let _ = writeln!(toml, "[rules.{}]\nscope = \"all\"", r.name);
    }
    Config::parse(&toml).expect("fixture config parses")
}

fn fixture_dir(rule: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

fn lint_fixture(rule: &str, which: &str) -> (Vec<Finding>, String) {
    let abs = fixture_dir(rule).join(which);
    let text = std::fs::read_to_string(&abs)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", abs.display()));
    let rel = format!("fixtures/{rule}/{which}");
    let file = SourceFile::new(rel, &text);
    // No other file names anything, so every `dead-pub` item fires.
    let findings = lint_file(&file, &fixture_config(), &Callers::default(), Some(rule));
    let mut rendered = String::new();
    for f in &findings {
        rendered.push_str(&render_text(f, file.line_text(f.line)));
        rendered.push('\n');
    }
    (findings, rendered)
}

/// Compares `rendered` against the checked-in snapshot, reblessing when
/// `UPDATE_LINT_FIXTURES` is set (mirroring the repo's `UPDATE_GOLDEN`).
fn check_snapshot(rule: &str, which: &str, rendered: &str) {
    let path = fixture_dir(rule).join(which.replace(".rs", ".expected"));
    if std::env::var_os("UPDATE_LINT_FIXTURES").is_some() {
        std::fs::write(&path, rendered).expect("write snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); rebless with UPDATE_LINT_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "snapshot mismatch for {rule}/{which}; rebless with UPDATE_LINT_FIXTURES=1"
    );
}

fn check_rule(rule: &str) {
    // fire.rs: the rule must produce unsuppressed findings, all its own.
    let (findings, rendered) = lint_fixture(rule, "fire.rs");
    assert!(
        !findings.is_empty(),
        "{rule}: fire.rs produced no findings"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "{rule}: fire.rs produced a stray {} finding", f.rule);
        assert!(
            f.suppressed.is_none(),
            "{rule}: fire.rs finding unexpectedly suppressed: {f:?}"
        );
    }
    check_snapshot(rule, "fire.rs", &rendered);

    // suppressed.rs: the same violations, every one covered by a
    // reasoned allow().
    let (findings, rendered) = lint_fixture(rule, "suppressed.rs");
    assert!(
        !findings.is_empty(),
        "{rule}: suppressed.rs produced no findings (nothing to suppress proves nothing)"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "{rule}: suppressed.rs produced a stray {} finding", f.rule);
        let reason = f
            .suppressed
            .as_deref()
            .unwrap_or_else(|| panic!("{rule}: unsuppressed finding in suppressed.rs: {f:?}"));
        assert!(!reason.trim().is_empty(), "{rule}: empty suppression reason");
    }
    check_snapshot(rule, "suppressed.rs", &rendered);
}

macro_rules! fixture_tests {
    ($($test_name:ident => $rule:literal;)*) => {
        $(
            #[test]
            fn $test_name() {
                check_rule($rule);
            }
        )*

        /// The macro list must cover the whole registry, so adding a rule
        /// without a fixture fails here.
        #[test]
        fn every_rule_has_a_fixture_test() {
            let listed = [$($rule),*];
            assert_eq!(listed.len(), RULES.len(), "fixture list out of sync with RULES");
            for r in RULES {
                assert!(listed.contains(&r.name), "rule `{}` has no fixture test", r.name);
            }
        }
    };
}

fixture_tests! {
    hash_container => "hash-container";
    wall_clock => "wall-clock";
    sleep => "sleep";
    env_read => "env-read";
    rng_construction => "rng-construction";
    seed_literal => "seed-literal";
    hot_alloc => "hot-alloc";
    purity_rng => "purity-rng";
    purity_io => "purity-io";
    purity_global_state => "purity-global-state";
    unwrap_in_lib => "unwrap-in-lib";
    panic_in_lib => "panic-in-lib";
    suppression_hygiene => "suppression-hygiene";
    dead_pub => "dead-pub";
}
