//! Determinism pin for everything the workspace simulates.
//!
//! `tests/golden/` is the only golden directory. Its files were first
//! generated from the seed implementation (`BinaryHeap` + cancel-set
//! calendar, `HashMap` lock table, hand-written figure runners) and have
//! since moved only with labelled reblesses. Any rewrite of the calendar,
//! lock table, engine internals, spec compiler or runner must keep every
//! figure of the quick catalog, every pinned spec table and a direct
//! simulator run per CC protocol **byte-identical** — refactors and
//! performance work must never change a simulation result.
//!
//! The check runs both ways: every file produced here must match its
//! golden, and every golden must be produced here, so neither a catalog
//! change nor a deleted spec can silently drop a pin.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p alc-scenario --test
//! golden --test golden_port` only for changes that intentionally alter
//! simulation behavior, and say so in the commit message.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use alc_scenario::figures::{self, CATALOG};
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::workload::WorkloadConfig;

use common::{compare_or_bless, golden_dir, run_quick, scenarios_dir, table_csv};

/// The specs pinned by their default report table: the seven ablations
/// ported from hand-written runners, and the fault / overload catalog
/// (sampled repair times, client-side counters, the `never` recovery
/// verdicts). `golden_port.rs` checks each under its own test name.
const SPEC_TABLES: [&str; 11] = [
    "abl-alpha",
    "abl-cc",
    "abl-displacement",
    "abl-dither",
    "abl-hybrid",
    "abl-rules",
    "abl-victim",
    "fault-repair",
    "metastable-fault",
    "retry-shed",
    "retry-storm",
];

const DIRECT_SIM: &str = "direct_sim.jsonl";

fn sorted_file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 file name")
        })
        .collect();
    names.sort();
    names
}

/// Every CSV `scenario figure --quick all` writes and every pinned spec
/// table must match the golden bytes, and together with the direct
/// simulator runs they must be exactly the golden directory. Every claim
/// of the quick catalog holds: each figure's paper result, measured on
/// this run, lies inside its stated band.
#[test]
fn quick_catalog_outputs_are_byte_identical() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-actual");
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).expect("create output dir");
    let mut failed_claims = Vec::new();
    for fig in &CATALOG {
        let report = figures::run(fig, &scenarios_dir(), true, Some(&out))
            .unwrap_or_else(|e| panic!("{}: {e}", fig.0));
        report.write_csv(&out).expect("write csv");
        assert!(!report.claims.is_empty(), "{} checks no claim", fig.0);
        failed_claims.extend(report.failed_claims().map(|text| format!("{}: {text}", fig.0)));
    }
    for spec in SPEC_TABLES {
        let (plan, records) = run_quick(spec);
        fs::write(out.join(format!("{spec}.csv")), table_csv(&plan, &records)).expect("write csv");
    }
    let mut produced = sorted_file_names(&out);
    for name in &produced {
        compare_or_bless(name, &fs::read(out.join(name)).expect("read actual"));
    }
    produced.push(DIRECT_SIM.to_string());
    produced.sort();
    assert_eq!(
        produced,
        sorted_file_names(&golden_dir()),
        "the files produced here and tests/golden/ must be the same set"
    );
    assert!(
        failed_claims.is_empty(),
        "claims outside their band:\n{}",
        failed_claims.join("\n")
    );
}

/// Direct engine runs (stats + controller trajectories) per CC protocol
/// must match the seed bytes: this pins the event order, the RNG draw
/// sequence and the lock-table grant order all at once.
#[test]
fn direct_sim_runs_are_byte_identical() {
    let mut blob = String::new();
    for cc in CcKind::ALL {
        let mut sim = Simulator::new(
            SystemConfig {
                terminals: 40,
                cpus: 4,
                db_size: 300,
                think: alc_des::dist::Dist::exponential(300.0),
                disk_access: alc_des::dist::Dist::constant(3.0),
                disk_init_commit: alc_des::dist::Dist::constant(40.0),
                seed: 0xA11CE,
                ..SystemConfig::default()
            },
            WorkloadConfig::default(),
            cc,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: 12,
                warmup_ms: 2_000.0,
                displacement: true,
                ..ControlConfig::default()
            },
            Some(Box::new(alc_core::controller::IncrementalSteps::new(
                alc_core::controller::IsParams {
                    initial_bound: 12,
                    max_bound: 40,
                    ..alc_core::controller::IsParams::default()
                },
            ))),
        );
        sim.set_record_optimum(false);
        let stats = sim.run(25_000.0);
        let traj = sim.trajectories();
        blob.push_str(&format!(
            "{{\"cc\":{:?},\"stats\":{},\"bound\":{},\"throughput\":{},\"mpl\":{}}}\n",
            cc,
            serde_json::to_string(&stats).expect("stats serialize"),
            serde_json::to_string(&traj.bound).expect("bound serialize"),
            serde_json::to_string(&traj.throughput).expect("throughput serialize"),
            serde_json::to_string(&traj.observed_mpl).expect("mpl serialize"),
        ));
    }
    compare_or_bless(DIRECT_SIM, blob.as_bytes());
}
