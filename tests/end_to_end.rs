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

/// Each on-disk record reads checked-in lines and writes them back byte
/// for byte: a gate log's header and its four event variants, a metrics
/// snapshot, and (read only) the points of a `trace` profile.
#[test]
fn on_disk_records_round_trip_byte_for_byte() {
    use std::collections::HashSet;

    use adaptive_load_control::analytic::surface::Schedule;
    use adaptive_load_control::runtime::{
        read_gate_log, read_metrics_jsonl, write_gate_log, write_metrics_jsonl,
    };
    use adaptive_load_control::scenario::profile::schedule_from_value;

    let log = include_str!("../scenarios/traces/retry-storm_gatelog.jsonl");
    let head: String = log.lines().take(23).map(|l| format!("{l}\n")).collect();
    let (header, events) = read_gate_log(head.as_bytes()).expect("the checked-in log reads");
    let variants: HashSet<_> = events.iter().map(std::mem::discriminant).collect();
    assert_eq!(variants.len(), 4, "Mpl, Commit, Abort and Decision all appear");
    let mut out = Vec::new();
    write_gate_log(&mut out, &header.expect("a header line"), &events).expect("write");
    assert_eq!(String::from_utf8(out).expect("UTF-8"), head);

    let metrics = "{\"at_ms\":2000.125,\"bound\":7,\"in_use\":5,\"waiting\":2,\
                   \"commits\":341,\"aborts\":12,\"sheds\":3,\"decisions\":1,\
                   \"window_departures\":341,\"window_aborts\":12,\"window_shed\":3,\
                   \"observed_mpl\":4.833333333333333,\"mean_response_ms\":18.700000000000003,\
                   \"p50_ms\":14.5,\"p95_ms\":61.25,\"p99_ms\":90.0,\"queue_depth\":2}\n";
    let snapshots = read_metrics_jsonl(metrics.as_bytes()).expect("the line reads");
    let mut out = Vec::new();
    write_metrics_jsonl(&mut out, &snapshots).expect("write");
    assert_eq!(String::from_utf8(out).expect("UTF-8"), metrics);

    let scenarios = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let trace = serde::Value::Str("traces/daily-load.jsonl".into());
    let profile = serde::Value::Map(vec![("trace".into(), trace)]);
    let Schedule::Piecewise(points) = schedule_from_value(&profile, &scenarios).expect("reads")
    else {
        panic!("a trace reads as a piecewise schedule");
    };
    let written: String = points
        .iter()
        .map(|(t, x)| format!("{{\"t_ms\": {t:?}, \"value\": {x:?}}}\n"))
        .collect();
    let trace = include_str!("../scenarios/traces/daily-load.jsonl");
    assert_eq!(written, trace);
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
