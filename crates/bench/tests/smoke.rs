//! Smoke tests keeping the bench binary wired into the workspace: the
//! `repro` CLI must stay buildable and its cheap code paths (help,
//! catalog, a math-only figure) must exit 0.

use std::path::PathBuf;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"))
}

#[test]
fn repro_help_exits_zero() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["--help"]);
    assert!(out.status.success(), "repro --help failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: repro"), "unexpected help text: {text}");
}

#[test]
fn repro_list_prints_catalog() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["list"]);
    assert!(out.status.success(), "repro list failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    for id in ["fig01", "fig12", "fig13", "fig14", "abl-hotspot"] {
        assert!(text.contains(id), "catalog is missing `{id}`: {text}");
    }
}

#[test]
fn repro_rejects_unknown_experiment() {
    let out = run(env!("CARGO_BIN_EXE_repro"), &["no-such-figure"]);
    assert!(!out.status.success(), "unknown experiment must fail");
}

#[test]
fn repro_quick_fig06_writes_csv() {
    // fig06 is pure math (no simulation), so even `--quick` stays fast;
    // this exercises the full argument parsing → runner → CSV pipeline.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--quick", "--out", dir.to_str().unwrap(), "fig06"],
    );
    assert!(out.status.success(), "repro fig06 failed: {out:?}");
    let csv = dir.join("fig06.csv");
    assert!(csv.is_file(), "expected {} to exist", csv.display());
    let body = std::fs::read_to_string(&csv).expect("readable csv");
    assert!(body.lines().count() > 1, "csv has no data rows: {body}");

    // The run manifest must land next to the CSVs and parse back.
    let manifest = std::fs::read_to_string(dir.join("run_manifest.json"))
        .expect("run_manifest.json written");
    let parsed: serde_json::Value = serde_json::from_str(&manifest).expect("valid JSON");
    assert_eq!(
        parsed.get("scale").cloned(),
        Some(serde_json::Value::Str("Quick".into()))
    );
    // The recorded control config must match the scale actually run.
    let control: alc_tpsim::config::ControlConfig = serde_json::from_str(
        &serde_json::to_string(parsed.get("control").expect("control recorded")).unwrap(),
    )
    .expect("control parses");
    assert_eq!(control, alc_bench::figures::control(alc_bench::Scale::Quick));
}

/// Experiment configs must survive a JSON round trip, so runs can be
/// stored next to their CSVs and replayed.
#[test]
fn system_config_round_trips_through_json() {
    let sys = alc_bench::figures::quick_system(40, 0x5EED);
    let json = serde_json::to_string_pretty(&sys).expect("serialize");
    let back: alc_tpsim::config::SystemConfig = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, sys);

    let ctl = alc_tpsim::config::ControlConfig::default();
    let back: alc_tpsim::config::ControlConfig =
        serde_json::from_str(&serde_json::to_string(&ctl).expect("serialize")).expect("parse");
    assert_eq!(back, ctl);
}
