//! The metastability regression pin — the acceptance test of the
//! closed-loop client layer.
//!
//! `scenarios/metastable-fault.json` stages a transient CPU outage
//! (2 of 3 CPUs down for 8 s) under an impatient retrying population.
//! Without retry shedding the storm outlives the repair: every timeout
//! spawns a retry, retries keep the MPL pinned above the certification
//! thrash point, responses stay above the client timeout, so every
//! attempt times out again — a self-sustaining metastable state. The
//! fault is *gone* and goodput stays on the floor. The `retry-shed`
//! variant gives the gate a retry budget: it sheds retry attempts before
//! first attempts, drains the storm, and the system falls back to the
//! healthy equilibrium.
//!
//! These tests pin both halves of that demonstration at quick scale and
//! the determinism of the whole run (rerun, serial vs parallel, client
//! counters included) so the pathology can never silently rot into "the
//! storm drains by itself" or "shedding stopped helping".

use std::path::PathBuf;

use alc_scenario::compile::RunPlan;
use alc_scenario::runner::{build_report, run_plan, RunRecord};
use alc_scenario::LoadedSpec;

fn quick_plan() -> RunPlan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/metastable-fault.json");
    let loaded = LoadedSpec::read(&path).expect("read spec");
    loaded.compile(true).expect("compile quick")
}

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

/// Mean of a trajectory over a time window (ms).
fn window_mean(points: &[(f64, f64)], from: f64, to: f64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(t, x) in points {
        if t >= from && t <= to {
            sum += x;
            n += 1;
        }
    }
    assert!(n > 0, "no samples in [{from}, {to}]");
    sum / n as f64
}

fn find<'a>(records: &'a [RunRecord], label: &str) -> &'a RunRecord {
    records
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("missing variant `{label}`"))
}

#[test]
fn transient_fault_is_metastable_without_shedding_and_recovers_with_it() {
    let plan = quick_plan();
    // The spec's shape is part of the pin: a fault that *ends* long
    // before the horizon, so degradation past the repair is hysteresis,
    // not the fault itself.
    let fault_end = 18_000.0;
    let horizon = plan.variants[0].cell.horizon_ms;
    assert!(
        horizon >= fault_end + 20_000.0,
        "quick horizon must leave a long post-repair window"
    );
    let records = run_plan(&plan);
    let no_shed = find(&records, "no-shed");
    let shed = find(&records, "retry-shed");

    // --- The metastable half: the fault is repaired at t=18s, yet the
    // no-shed system never comes back. Post-repair throughput (with a
    // 2s margin for the repair itself) stays under the recovery band
    // of the healthy baseline, and the retry storm is what holds it
    // down: attempts run far ahead of requests.
    let traj = no_shed.trajectories.as_ref().expect("trajectories retained");
    let baseline = window_mean(traj.throughput.points(), 0.0, 10_000.0);
    let post_repair = window_mean(traj.throughput.points(), fault_end + 2_000.0, horizon);
    assert!(
        baseline > 5.0,
        "healthy baseline too weak to call this a collapse: {baseline:.2}/s"
    );
    assert!(
        post_repair < 0.35 * baseline,
        "no-shed recovered after the repair ({post_repair:.2}/s vs baseline \
         {baseline:.2}/s) — the metastable lock-in is gone, retune the spec"
    );
    let c = no_shed.clients.expect("client counters");
    let amplification = c.attempts as f64 / c.first_attempts.max(1) as f64;
    assert!(
        amplification > 5.0,
        "no-shed retry amplification {amplification:.1} too low for a storm"
    );
    assert!(c.timeouts > 500, "storm produced only {} timeouts", c.timeouts);

    // --- The recovery half: shedding retries at the gate drains the
    // same storm. Goodput at least doubles and the post-repair window
    // actually commits.
    let st = shed.clients.expect("client counters");
    assert!(st.shed > 0, "the gate never shed a retry");
    assert!(
        st.committed as f64 >= 2.0 * c.committed as f64,
        "shedding no longer rescues goodput: {} vs {} committed",
        st.committed,
        c.committed
    );
    let straj = shed.trajectories.as_ref().expect("trajectories retained");
    let shed_post = window_mean(straj.throughput.points(), fault_end + 2_000.0, horizon);
    let shed_base = window_mean(straj.throughput.points(), 0.0, 10_000.0);
    assert!(
        shed_post >= 0.35 * shed_base,
        "retry-shed did not re-enter the recovery band: {shed_post:.2}/s \
         vs baseline {shed_base:.2}/s"
    );

    // --- The report renders the same verdict through the derived
    // column: "never" for the locked-in run, a prompt recovery for the
    // shedding run.
    let report = build_report(&plan, &records);
    let ttr_col = report
        .headers
        .iter()
        .position(|h| h == "time_to_recover_s")
        .expect("time_to_recover_s column");
    let row = |label: &str| {
        report
            .rows
            .iter()
            .find(|r| r[0] == label)
            .unwrap_or_else(|| panic!("missing report row `{label}`"))
    };
    assert_eq!(
        row("no-shed")[ttr_col],
        "never",
        "no-shed must read `never` in the report"
    );
    let shed_ttr: f64 = row("retry-shed")[ttr_col]
        .parse()
        .expect("retry-shed recovery time is a number");
    assert!(
        shed_ttr <= 5.0,
        "retry-shed took {shed_ttr}s to re-enter the band after the repair"
    );
}

/// The whole demonstration is deterministic: rerun and serial execution
/// reproduce every statistic and every client counter exactly, and the
/// rendered report is byte-identical.
#[test]
fn metastable_fault_run_is_deterministic_across_reruns_and_thread_counts() {
    let plan = quick_plan();
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    let serial = run_serial(&plan);
    for (other, what) in [(&b, "rerun"), (&serial, "serial vs parallel")] {
        assert_eq!(a.len(), other.len(), "{what}: record count");
        for (x, y) in a.iter().zip(other.iter()) {
            assert_eq!(x.label, y.label, "{what}: order");
            assert_eq!(x.seed, y.seed, "{what}: seed");
            assert_eq!(x.stats, y.stats, "{what}: stats of `{}`", x.label);
            assert_eq!(x.clients, y.clients, "{what}: clients of `{}`", x.label);
        }
    }
    let csv = |records: &[RunRecord], tag: &str| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let path = build_report(&plan, records)
            .write_csv(&dir)
            .expect("write csv");
        std::fs::read(path).expect("read csv")
    };
    assert_eq!(
        csv(&a, "overload-a"),
        csv(&b, "overload-b"),
        "rendered report not byte-identical"
    );
}
