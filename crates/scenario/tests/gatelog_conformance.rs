//! Conformance pin: the checked-in gate logs under `scenarios/traces/`
//! must replay byte-identically through the `alc-runtime` control core.
//!
//! The logs were captured by `scenario run --quick --gate-log` from the
//! checked-in specs, so each test rebuilds the variant's controller from
//! its spec exactly as the runner did and feeds the recorded event
//! stream through the runtime's `LoopCore`. The decision sequences must
//! match byte-for-byte — this is the contract that makes the simulator
//! the runtime's acceptance harness: any drift in the sampler, the
//! controllers, the telemetry window, or the JSONL format snaps a pin.
//!
//! A third test closes the capture→replay loop live: it runs a fresh
//! quick-scale scenario with gate logging into a temp dir and replays
//! the log it just wrote, proving the pin isn't an artifact of stale
//! fixtures.

use std::path::{Path, PathBuf};

use alc_scenario::conformance::replay_log;
use alc_scenario::runner::{cell_file_name, run_plan_logged, GateLogRequest};
use alc_scenario::LoadedSpec;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn assert_replays(spec: &Path, log: &Path) {
    let spec = LoadedSpec::read(spec).expect("read spec");
    let outcome = replay_log(&spec, log).expect("replay");
    assert!(
        outcome.decisions > 0,
        "{}: a conformance pin over zero decisions proves nothing",
        log.display()
    );
    if let Some(at) = outcome.conformance.first_divergence {
        let (rec, rep) = outcome.conformance.decision_lines();
        panic!(
            "{} diverges at decision {at}:\n  recorded: {}\n  replayed: {}",
            log.display(),
            rec.get(at).map_or("<missing>", String::as_str),
            rep.get(at).map_or("<missing>", String::as_str)
        );
    }
}

#[test]
fn fig13_trace_replays_byte_identically() {
    let root = repo_root();
    assert_replays(
        &root.join("scenarios/fig13.json"),
        &root.join("scenarios/traces/fig13_gatelog.jsonl"),
    );
}

#[test]
fn sinus_traces_replay_byte_identically_for_both_controllers() {
    let root = repo_root();
    let spec = root.join("scenarios/sinus.json");
    assert_replays(&spec, &root.join("scenarios/traces/sinus_IS_gatelog.jsonl"));
    assert_replays(&spec, &root.join("scenarios/traces/sinus_PA_gatelog.jsonl"));
}

/// The retry-storm trace pins the retry-budget gate: its spec names the
/// `retry_budget` controller, which the runtime's `RetryBudgetLaw` *is*.
/// A byte-identical replay proves the runtime's telemetry path feeds it
/// what the simulator's sampler did — shed-retry admission refusals stay
/// invisible to the sampler on both sides, and the storm's cut/rebuild
/// arc reproduces exactly.
#[test]
fn retry_storm_trace_replays_byte_identically_through_the_runtime_law() {
    let root = repo_root();
    assert_replays(
        &root.join("scenarios/retry-storm.json"),
        &root.join("scenarios/traces/retry-storm_gatelog.jsonl"),
    );
}

#[test]
fn freshly_captured_logs_replay_byte_identically() {
    let root = repo_root();
    let spec_path = root.join("scenarios/fig13.json");
    let spec = LoadedSpec::read(&spec_path).expect("read spec");
    let plan = spec.compile(true).expect("compile quick");
    let dir = std::env::temp_dir().join("alc_gatelog_conformance_test");
    let _ = std::fs::remove_dir_all(&dir);
    let req = GateLogRequest {
        dir: dir.clone(),
        quick: true,
    };
    run_plan_logged(&plan, Some(&req)).expect("run with capture");
    let log = dir.join(cell_file_name(&plan, &plan.variants[0], 0, "gatelog.jsonl"));
    assert_replays(&spec_path, &log);
}
