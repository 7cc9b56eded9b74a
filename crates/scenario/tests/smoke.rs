//! Smoke tests of the `scenario` binary's cheap paths: the help and
//! README's DSL vocabulary, the `figure` subcommand (help, catalog, an
//! unknown id, a closed-form figure end to end, the quick catalog's claim
//! verdicts), the CSV a `run` writes when a header needs quoting, a run
//! whose access skew crosses 1, number literals `validate` refuses and
//! runs whose draws overflow.

#[path = "../../../tests/common/readme.rs"]
mod readme;

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary from the repository root, where `figure` finds
/// `scenarios/`.
fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch scenario: {e}"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The help's DSL names are the reader's, listed by one function, and so
/// is README's vocabulary block.
#[test]
fn help_and_readme_list_the_readers_vocabulary() {
    let out = scenario(&["--help"]);
    assert!(out.status.success(), "--help failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let vocabulary = alc_scenario::spec::vocabulary();
    assert!(
        text.ends_with(&format!("DSL vocabulary:\n{vocabulary}")),
        "--help does not end with the vocabulary: {text}"
    );
    readme::check_readme_block("dsl-vocabulary", &format!("```text\n{vocabulary}```\n"));
}

#[test]
fn figure_help_exits_zero() {
    let out = scenario(&["figure", "--help"]);
    assert!(out.status.success(), "figure --help failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("figure [--quick] [--out DIR]"),
        "unexpected help text: {text}"
    );
}

#[test]
fn figure_list_prints_catalog() {
    let out = scenario(&["figure", "list"]);
    assert!(out.status.success(), "figure list failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["fig01", "fig12", "fig13", "fig14", "abl-hotspot"] {
        assert!(text.contains(id), "catalog is missing `{id}`: {text}");
    }
}

#[test]
fn figure_rejects_unknown_id_before_writing() {
    let dir = fresh_dir("figure-unknown");
    let out = scenario(&[
        "figure",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "fig06",
        "no-such-figure",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown id must exit 2: {out:?}"
    );
    assert!(!dir.exists(), "nothing may be written before ids resolve");
}

#[test]
fn figure_without_an_id_exits_two() {
    let out = scenario(&["figure", "--quick"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "no selection must exit 2: {out:?}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("no figure selected"));
}

#[test]
fn figure_quick_fig06_writes_csv() {
    // fig06 is pure math (no simulation), so this exercises argument
    // parsing → catalog → CSV and nothing slow.
    let dir = fresh_dir("figure-smoke");
    let out = scenario(&["figure", "--quick", "--out", dir.to_str().unwrap(), "fig06"]);
    assert!(out.status.success(), "figure fig06 failed: {out:?}");
    let body = std::fs::read_to_string(dir.join("fig06.csv")).expect("fig06.csv written");
    assert!(body.lines().count() > 1, "csv has no data rows: {body}");
}

/// The whole quick catalog holds its claims: exit 0, every figure prints
/// at least one verdict, none of them a failure, and the tally closes
/// the output.
#[test]
fn figure_quick_all_prints_every_claim_verdict() {
    let dir = fresh_dir("figure-claims");
    let out = scenario(&["figure", "--quick", "--out", dir.to_str().unwrap(), "all"]);
    assert!(out.status.success(), "figure --quick all failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let sections: Vec<&str> = text.split("\n== ").collect();
    assert_eq!(sections.len(), 17, "{text}");
    for section in &sections {
        assert!(section.contains("  [claim holds] "), "no claim in: {section}");
    }
    assert!(!text.contains("[claim FAILS]"), "{text}");
    let holds = text.matches("  [claim holds] ").count();
    assert!(
        text.trim_end().ends_with(&format!("claims: {holds} hold, 0 fail")),
        "{text}"
    );
}

/// A header with a comma used to widen the header line to one field more
/// than its rows; cells are quoted per RFC 4180 where they need it.
#[test]
fn run_quotes_a_header_that_contains_a_comma() {
    let dir = fresh_dir("run-csv-quoting");
    let out = scenario(&[
        "run",
        "--quick",
        "--out",
        dir.to_str().unwrap(),
        "--set",
        "label_header=\"run,extra\"",
        "scenarios/fig13.json",
    ]);
    assert!(out.status.success(), "run failed: {out:?}");
    let body = std::fs::read_to_string(dir.join("fig13.csv")).expect("fig13.csv written");
    let mut lines = body.lines();
    assert_eq!(
        lines.next(),
        Some("\"run,extra\",throughput_per_s,abort_ratio,mean_mpl,mean_bound")
    );
    assert_eq!(lines.next().map(|row| row.split(',').count()), Some(5));
}

/// A skew ramp that crosses θ = 1 passes `validate` and must run: the
/// Zipf sampler draws at θ = 1 in its logarithmic limit form.
#[test]
fn run_completes_with_access_skew_crossing_one() {
    let dir = fresh_dir("skew-crossing-one");
    let out = scenario(&[
        "run",
        "--out",
        dir.to_str().unwrap(),
        "--set",
        r#"workload.access_skew={"ramp": {"from": 0.99999999, "to": 1.00000001, "t_start": 0, "t_end": 100000}}"#,
        "--set",
        "horizon_ms=100000",
        "scenarios/hotspot-drift.json",
    ]);
    assert!(out.status.success(), "run failed: {out:?}");
    assert!(dir.join("hotspot-drift.csv").exists());
}

/// Writes `spec` into a fresh directory named `tag` and returns its path.
fn spec_file(tag: &str, spec: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).expect("create spec dir");
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, spec).expect("write spec");
    path
}

/// JSON has no infinities: a number literal past `f64`'s range used to
/// read as `+∞`, pass `validate`, and panic the run's clock.
#[test]
fn validate_refuses_a_number_literal_out_of_range() {
    for (tag, body) in [
        ("inf-cc-phase", r#""cc": {"phases": [[0, "certification"], [1e999, "2pl"]]}"#),
        ("inf-timeout", r#""clients": {"population": 10, "timeout": {"exponential": 1e999}}"#),
        (
            "inf-repair",
            r#""faults": [{"at": 100, "repair": {"exponential": 1e999}, "cpus_down": 1}]"#,
        ),
    ] {
        let path = spec_file(tag, &format!(r#"{{"name": "{tag}", "horizon_ms": 2000, {body}}}"#));
        let out = scenario(&["validate", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{tag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("number out of range `1e999`"), "{tag}: {stdout}");
    }
}

/// A legal spec whose draw overflows to a delay of `+∞` runs: an event
/// an infinite delay away never fires, and a repair that never comes
/// leaves its CPUs down. Each of these passed `validate` and then
/// panicked the run's clock.
#[test]
fn run_completes_when_a_draw_overflows_to_infinity() {
    for (tag, body, seed) in [
        ("huge-think", r#""system": {"think": {"exponential": 1e308}}"#, "0"),
        ("huge-burst", r#""system": {"cpu_phase": {"exponential": 1e308}}"#, "0"),
        (
            "huge-think-factor",
            r#""system": {"think": {"exponential": 1e308}},
               "workload": {"think_time_factor": 1e308}"#,
            "0",
        ),
        (
            "tiny-arrival-factor",
            r#""system": {"offered_load_per_s": 10}, "workload": {"arrival_rate_factor": 1e-320}"#,
            "0",
        ),
        // Seed 2 draws this repair time as +∞.
        (
            "huge-repair",
            r#""faults": [{"at": 100, "repair": {"exponential": 1e308}, "cpus_down": 1}]"#,
            "2",
        ),
    ] {
        let path =
            spec_file(tag, &format!(r#"{{"name": "{tag}", "horizon_ms": 20000, {body}}}"#));
        let dir = path.parent().unwrap().join("out");
        let seed = format!("seed={seed}");
        let args = ["run", "--quick", "--set", &seed, "--out", dir.to_str().unwrap()];
        let out = scenario(&[&args[..], &[path.to_str().unwrap()]].concat());
        assert!(out.status.success(), "{tag}: {out:?}");
        assert!(dir.join(format!("{tag}.csv")).exists(), "{tag}: no table written");
    }
}
