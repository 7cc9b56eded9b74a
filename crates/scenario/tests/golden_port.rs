//! Per-spec golden pins, one named test each: the checked-in specs that
//! replaced hand-written ablation runners must keep reproducing those
//! runners' **pre-port** tables byte-identically at quick (CI) scale,
//! and the fault / overload catalog must keep its own.
//!
//! The pinned files live in `tests/golden/` with every other golden;
//! `golden.rs` checks the directory as a whole (nothing produced that is
//! not pinned, nothing pinned that is not produced). What this file adds
//! is a failure that names the spec, and the whole-catalog smoke run.
//!
//! * `abl-victim` / `abl-rules` — report stats tables (per-variant
//!   throughput, abort ratio, displacement counts…);
//! * `abl-dither` / `abl-alpha` / `abl-displacement` / `abl-hybrid` —
//!   tables mixing raw stats with *derived* columns (post-jump tracking
//!   error, settling time) and literal input cells;
//! * `abl-cc` — the six-protocol load–throughput grid, exercising the
//!   sweep axes and the pivoted report layout;
//! * `fault-repair`, `retry-storm`, `retry-shed`, `metastable-fault` —
//!   sampled repair times, client-side counters, recovery verdicts.
//!
//! Re-bless with `UPDATE_GOLDEN=1` (see `common::compare_or_bless`).

mod common;

use std::path::PathBuf;

use alc_scenario::LoadedSpec;

use common::{compare_or_bless, run_quick, scenarios_dir, table_csv};

/// Quick-scale default table of a checked-in spec vs `<spec>.csv`.
fn assert_table_matches(spec_name: &str) {
    let (plan, records) = run_quick(spec_name);
    compare_or_bless(
        &format!("{spec_name}.csv"),
        table_csv(&plan, &records).as_bytes(),
    );
}

#[test]
fn abl_victim_port_reproduces_golden_table() {
    assert_table_matches("abl-victim");
}

#[test]
fn abl_rules_port_reproduces_golden_table() {
    assert_table_matches("abl-rules");
}

#[test]
fn abl_dither_port_reproduces_golden_table() {
    assert_table_matches("abl-dither");
}

#[test]
fn abl_alpha_port_reproduces_golden_table() {
    assert_table_matches("abl-alpha");
}

#[test]
fn abl_displacement_port_reproduces_golden_table() {
    assert_table_matches("abl-displacement");
}

#[test]
fn abl_hybrid_port_reproduces_golden_table() {
    assert_table_matches("abl-hybrid");
}

#[test]
fn abl_cc_sweep_port_reproduces_golden_table() {
    assert_table_matches("abl-cc");
}

/// The `repair` fault vocabulary is golden-pinned: sampled
/// mean-time-to-repair outages must stay byte-identical across builds
/// (the draws come from each replication's dedicated `fault_repair`
/// RNG substream, so nothing else in the engine can shift them).
#[test]
fn fault_repair_spec_reproduces_its_golden_table() {
    let (plan, records) = run_quick("fault-repair");
    let vp = &plan.variants[0];
    assert!(
        vp.fault_schedules.is_some(),
        "repair faults must lower to per-replication timelines"
    );
    // The two replications sample different outage lengths.
    let per_rep = vp.fault_schedules.as_ref().unwrap();
    assert_ne!(per_rep[0], per_rep[1], "replications shared repair draws");
    compare_or_bless("fault-repair.csv", table_csv(&plan, &records).as_bytes());
}

/// The overload catalog is golden-pinned: client-side counters, retry
/// amplification, the `never`/prompt recovery verdicts, and the
/// retry-budget gate's mean bound must stay byte-identical. These CSVs
/// encode the paper's metastability demonstration — any engine or
/// client-state-machine drift snaps one of them.
#[test]
fn retry_storm_spec_reproduces_its_golden_table() {
    assert_table_matches("retry-storm");
}

#[test]
fn retry_shed_spec_reproduces_its_golden_table() {
    assert_table_matches("retry-shed");
}

#[test]
fn metastable_fault_spec_reproduces_its_golden_table() {
    assert_table_matches("metastable-fault");
}

/// Every checked-in spec must compile (full + quick) and the whole
/// catalog must run end-to-end at quick scale — the acceptance floor for
/// "a new experiment is a JSON file".
#[test]
fn all_checked_in_specs_run_end_to_end_quick() {
    let mut names: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 16,
        "expected at least 16 checked-in scenario specs, found {}",
        names.len()
    );
    for path in names {
        let loaded = LoadedSpec::read(&path).expect("read spec");
        loaded
            .compile(false)
            .unwrap_or_else(|e| panic!("{} does not compile at full scale: {e}", path.display()));
        let plan = loaded
            .compile(true)
            .unwrap_or_else(|e| panic!("{} does not compile at quick scale: {e}", path.display()));
        let records = alc_scenario::runner::run_plan(&plan);
        assert!(!records.is_empty(), "{}: no runs", path.display());
        for r in &records {
            assert!(
                r.stats.commits > 0,
                "{}: variant `{}` starved (0 commits)",
                path.display(),
                r.label
            );
        }
    }
}
