//! Invariant tests for the new experiment classes: per-phase CC
//! switching and station fault events must be deterministic across
//! reruns *and* across thread counts (the rayon pool fans run cells
//! out; a cell-per-call serial execution must produce byte-identical
//! statistics), and the checked-in specs exercising them must do real
//! work on both sides of their boundaries.
//!
//! The transaction-conservation oracle itself (census sums, in-system
//! accounting, no lost or double-counted run while draining) lives at
//! the engine level in `alc_tpsim::engine` tests; here we pin the
//! scenario-visible contract.

use std::path::PathBuf;

use alc_scenario::compile::RunPlan;
use alc_scenario::runner::{run_plan, RunRecord};
use alc_scenario::spec::CcSpec;
use alc_scenario::trace::trace_cell;
use alc_scenario::LoadedSpec;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn quick_plan(name: &str) -> RunPlan {
    let path = scenarios_dir().join(format!("{name}.json"));
    let loaded = LoadedSpec::read(&path).expect("read spec");
    loaded.compile(true).expect("compile quick")
}

/// Runs every cell through its own single-job `run_plan` call: with one
/// job the rayon shim stays on the calling thread, so this is the
/// serial, thread-count-independent reference execution.
fn run_serial(plan: &RunPlan) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for v in &plan.variants {
        let sub = RunPlan {
            variants: vec![v.clone()],
            ..plan.clone()
        };
        records.extend(run_plan(&sub));
    }
    records
}

fn assert_same_records(a: &[RunRecord], b: &[RunRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.label, y.label, "{what}: order");
        assert_eq!(x.seed, y.seed, "{what}: seed");
        assert_eq!(x.stats, y.stats, "{what}: stats of `{}`", x.label);
    }
}

#[test]
fn cc_switch_scenario_is_deterministic_and_conserves_work() {
    let plan = quick_plan("cc-switch");
    let CcSpec::Phases(phases) = &plan.variants[0].cell.cc else {
        panic!("cc-switch reads as {:?}", plan.variants[0].cell.cc);
    };
    assert_eq!(phases.len(), 3, "the spec schedules two switches after t=0");
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_same_records(&a, &b, "rerun");
    let serial = run_serial(&plan);
    assert_same_records(&a, &serial, "parallel vs serial");
    // The run must commit meaningfully under all three protocols: the
    // quick horizon splits 5s/5s/5s, so a wedged drain would crater the
    // total.
    let stats = &a[0].stats;
    assert!(stats.commits > 100, "only {} commits", stats.commits);
    // No run lost or double-counted: the published abort ratio must be
    // exactly the counters' ratio (a drain bug would skew one of them).
    let expect = stats.aborts as f64 / (stats.commits + stats.aborts) as f64;
    assert_eq!(stats.abort_ratio, expect, "finished-run counters diverged");
}

#[test]
fn fault_scenario_is_deterministic_across_reruns_and_thread_counts() {
    let plan = quick_plan("fault-outage");
    assert_eq!(
        plan.variants[0].fault_timelines,
        vec![vec![(6_000.0, -2), (11_000.0, 2)]],
        "the fault window lowers to a kill/restart delta pair"
    );
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_same_records(&a, &b, "rerun");
    let serial = run_serial(&plan);
    assert_same_records(&a, &serial, "parallel vs serial");
    assert!(a[0].stats.commits > 50, "outage run starved");
}

/// Sampled repair times come from each replication's own `fault_repair`
/// RNG substream: the two replications of `fault-repair` see different
/// outage lengths (reruns see the same ones; `golden.rs` pins the table).
#[test]
fn fault_repair_replications_draw_different_outages() {
    let per_rep = &quick_plan("fault-repair").variants[0].fault_timelines;
    assert_ne!(per_rep[0], per_rep[1], "replications shared repair draws");
}

/// The acceptance pin for closed-loop CC selection: the checked-in
/// `adaptive-cc` spec must *demonstrably switch protocol* in response to
/// its hotspot ramp — escalating certification → 2PL as the ramp drives
/// the conflict ratio across the band and de-escalating once it cools —
/// with every decision visible in the switch-event trace, the dwell
/// guard respected, the counters conserved, and the whole run
/// deterministic across reruns and thread counts.
#[test]
fn adaptive_cc_scenario_switches_on_the_hotspot_ramp() {
    let plan = quick_plan("adaptive-cc");
    let CcSpec::Adaptive(ad) = &plan.variants[0].cell.cc else {
        panic!("adaptive-cc reads as {:?}", plan.variants[0].cell.cc);
    };
    assert_eq!(ad.candidates.len(), 2);
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_same_records(&a, &b, "rerun");
    let serial = run_serial(&plan);
    assert_same_records(&a, &serial, "parallel vs serial");

    let traj = a[0].trajectories.as_ref().expect("derived columns retain");
    let switches = &traj.switches;
    assert!(
        switches.len() >= 2,
        "the hotspot ramp must force an escalation and a return, saw {switches:?}"
    );
    use alc_tpsim::config::CcKind;
    assert_eq!(switches[0].from, CcKind::Certification);
    assert_eq!(switches[0].to, CcKind::TwoPhaseLocking);
    assert_eq!(switches[1].from, CcKind::TwoPhaseLocking);
    assert_eq!(switches[1].to, CcKind::Certification);
    // Determinism of the trace itself.
    assert_eq!(switches, &b[0].trajectories.as_ref().unwrap().switches);
    // The dwell guard: no two decisions closer than min_dwell_ms.
    for w in switches.windows(2) {
        assert!(
            w[1].decided_at_ms - w[0].decided_at_ms >= ad.guard.min_dwell_ms - 1e-9,
            "decisions at {} and {} violate min_dwell",
            w[0].decided_at_ms,
            w[1].decided_at_ms
        );
    }
    // Conservation across policy-driven switches: the published ratio is
    // exactly the counters' ratio (a drain bug would skew one of them).
    let stats = &a[0].stats;
    assert!(stats.commits > 200, "adaptive run starved");
    let expect = stats.aborts as f64 / (stats.commits + stats.aborts) as f64;
    assert_eq!(stats.abort_ratio, expect, "finished-run counters diverged");
}

/// Both storm variants (restart-rate ladder, shadow scoring) switch at
/// least once under the arrival burst and stay deterministic.
#[test]
fn adaptive_storm_variants_switch_and_are_deterministic() {
    let plan = quick_plan("adaptive-cc-storm");
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_same_records(&a, &b, "rerun");
    for rec in &a {
        let switches = &rec.trajectories.as_ref().expect("retained").switches;
        assert!(
            !switches.is_empty(),
            "variant `{}` never switched",
            rec.label
        );
        assert!(rec.stats.commits > 100, "variant `{}` starved", rec.label);
    }
}

/// The hysteresis/dwell ablation reproduces the oscillation pathology:
/// the guardless cell flaps an order of magnitude more than the fully
/// guarded one, and guards are monotone (more guard, fewer switches).
#[test]
fn ablation_guards_suppress_protocol_flapping() {
    let plan = quick_plan("adaptive-cc-ablation");
    assert_eq!(plan.variants.len(), 9, "3 hysteresis x 3 dwell grid");
    let records = run_plan(&plan);
    let count = |label: &str| -> usize {
        records
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("missing cell {label}"))
            .trajectories
            .as_ref()
            .expect("retained")
            .switches
            .len()
    };
    let flapping = count("h0_d0");
    let guarded = count("h0.4_d-long");
    assert!(
        flapping >= 10 * guarded.max(1),
        "guards did not suppress oscillation: guardless {flapping} vs guarded {guarded}"
    );
    // Each guard alone already helps.
    assert!(count("h0_d-long") < flapping, "dwell alone failed to help");
    assert!(count("h0.4_d0") < flapping, "hysteresis alone failed to help");
}

#[test]
fn sweep_grid_is_deterministic_across_thread_counts() {
    // 12 cells: enough to span multiple rayon chunks on any machine.
    let plan = quick_plan("sweep-load");
    assert_eq!(plan.variants.len(), 12);
    let parallel = run_plan(&plan);
    let serial = run_serial(&plan);
    assert_same_records(&parallel, &serial, "sweep parallel vs serial");
}

/// `scenario trace` and `scenario run` build their engine through the
/// one `VariantPlan::simulator`, so a traced cell reports exactly what
/// the runner reports for it — on the specs that use every setter:
/// scheduled CC switches, sampled per-replication fault schedules and a
/// closed-loop client pool.
#[test]
fn traced_cells_report_the_runner_stats() {
    for name in ["cc-switch", "fault-repair", "retry-storm"] {
        let plan = quick_plan(name);
        let dir =
            std::env::temp_dir().join(format!("alc_trace_seam_{}_{name}", std::process::id()));
        let mut records = run_plan(&plan).into_iter();
        for v in &plan.variants {
            for rep in 0..v.seeds.len() {
                let rec = records.next().expect("one record per cell");
                let traced = trace_cell(&plan, v, rep, &dir).expect("traced cell runs");
                assert!(traced.ok(), "{name}/{}/{rep}: {traced:?}", v.label);
                assert_eq!(traced.stats, rec.stats, "{name}/{}/{rep}: stats", v.label);
                assert_eq!(
                    traced.clients, rec.clients,
                    "{name}/{}/{rep}: clients",
                    v.label
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
