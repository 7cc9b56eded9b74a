//! End-to-end integration tests: the full stack (simulator + measurement
//! and controller + gate) on the checked-in specs at quick scale. The
//! paper's figure-level results are claims of `scenario figure`; these
//! are the results no figure prints, on `control-prevents-thrashing`
//! (the CI-scale curve whose uncontrolled end thrashes) and the figures'
//! own specs.

mod common;

use adaptive_load_control::scenario::runner;

use common::{quick_plan, run_quick, stats};

/// The static bounds of `control-prevents-thrashing`, in order.
const BOUNDS: [u32; 8] = [5, 10, 15, 20, 30, 45, 60, 90];

/// The uncontrolled system thrashes well below its peak (fig01's claim
/// states the shape; this is the magnitude, on the CI-scale curve), and
/// a well-placed bound prevents it.
#[test]
fn thrashing_exists_and_admission_control_prevents_it() {
    let (_, records) = run_quick("control-prevents-thrashing");
    let (peak_bound, peak) = BOUNDS
        .iter()
        .map(|b| {
            (
                *b,
                stats(records, &format!("bound-{b}")).throughput_per_sec,
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("bounds");
    let unlimited = stats(records, "unlimited").throughput_per_sec;
    assert!(
        unlimited < 0.85 * peak,
        "no thrashing: peak {peak} at {peak_bound}, unlimited {unlimited}"
    );
    assert!(
        peak_bound > BOUNDS[0] && peak_bound < BOUNDS[BOUNDS.len() - 1],
        "peak at boundary: {peak_bound}"
    );
}

/// Both controllers steer the bound to the throughput-optimal region and
/// beat the uncontrolled system.
#[test]
fn controllers_prevent_thrashing_end_to_end() {
    let (_, records) = run_quick("control-prevents-thrashing");
    let uncontrolled = stats(records, "unlimited").throughput_per_sec;
    for name in ["IS", "PA"] {
        let controlled = stats(records, name).throughput_per_sec;
        assert!(
            controlled > 1.1 * uncontrolled,
            "{name}: controlled {controlled} not better than uncontrolled {uncontrolled}"
        );
    }
}

/// Same seed ⇒ bit-identical trajectories across the whole stack (two
/// fresh runs, not `run_quick`'s shared one).
#[test]
fn full_stack_determinism() {
    let plan = quick_plan("fig14");
    let (a, b) = (runner::run_plan(&plan), runner::run_plan(&plan));
    assert_eq!(a[0].stats, b[0].stats);
    let (ta, tb) = (a[0].trajectories.as_ref(), b[0].trajectories.as_ref());
    let (ta, tb) = (
        ta.expect("fig14 records trajectories"),
        tb.expect("and again"),
    );
    assert_eq!(ta.bound.points(), tb.bound.points());
    assert_eq!(ta.throughput.points(), tb.throughput.points());
}

/// The simulator agrees with the analytic model (MVA × self-limiting
/// certification) within 15% over the whole static-bound range.
#[test]
fn simulator_matches_analytic_model() {
    let (plan, records) = run_quick("control-prevents-thrashing");
    for b in BOUNDS {
        let label = format!("bound-{b}");
        let v = plan
            .variants
            .iter()
            .find(|v| v.label == label)
            .expect("variant");
        let cell = &v.cell;
        let curve = cell.workload.occ_model_at(0.0, &cell.system).curve(cell.system.terminals);
        let sim = stats(records, &label).throughput_per_sec;
        let model = curve.throughput(f64::from(b)) * 1000.0;
        let rel = (sim - model).abs() / model;
        assert!(
            rel < 0.15,
            "bound {b}: sim {sim} vs model {model} (rel {rel:.3})"
        );
    }
}

/// What is written to disk encodes and decodes through the derive
/// (compile-time check): gate logs and their header, metrics snapshots
/// and run stats; trajectories are written only.
#[test]
fn configs_are_serde_capable() {
    fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
    assert_serde::<adaptive_load_control::core::gatelog::GateEvent>();
    assert_serde::<adaptive_load_control::runtime::GateLogHeader>();
    assert_serde::<adaptive_load_control::runtime::MetricsSnapshot>();
    assert_serde::<adaptive_load_control::tpsim::engine::RunStats>();
    fn assert_serialize<T: serde::Serialize>() {}
    assert_serialize::<adaptive_load_control::des::series::TimeSeries>();
}

/// The gate bound is respected at every instant of every static-bound
/// run of the fig01 sweep.
#[test]
fn gate_bound_never_exceeded_without_displacement() {
    let plan = quick_plan("fig01");
    for v in &plan.variants {
        assert!(!v.cell.control.displacement);
        let bound = v.cell.control.initial_bound;
        let mut sim = v.simulator(0);
        for step in 1..=40 {
            sim.run_until(f64::from(step) * v.cell.horizon_ms / 40.0);
            assert!(
                sim.gate().in_system() <= bound,
                "in-system {} exceeds bound {bound} at step {step}",
                sim.gate().in_system()
            );
        }
    }
}
