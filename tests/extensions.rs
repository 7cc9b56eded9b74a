//! Integration tests of the extension features: the CC protocols beyond
//! the paper's three, the hybrid and self-tuning controllers, and victim
//! policies — all run from the checked-in specs at quick scale.

mod common;

use std::sync::{Arc, Mutex};

use adaptive_load_control::analytic::surface::Schedule;
use adaptive_load_control::core::controller::{
    LoadController, PaOuterParams, PaParams, SelfTuningPa,
};
use adaptive_load_control::core::measure::Measurement;
use adaptive_load_control::scenario::runner::{self, RunRecord};
use adaptive_load_control::scenario::spec::{CcSpec, ControllerSpec};
use adaptive_load_control::tpsim::config::CcKind;
use adaptive_load_control::tpsim::Simulator;

use common::{quick_plan, run_quick, stats};

/// Adaptive control keeps every *new* protocol near its own swept peak —
/// the paper's protocol-independence claim extended to wound-wait,
/// wait-die and MVTO (`protocol-thrashing`: a static-bound row per bound
/// and a PA row, one column per protocol).
#[test]
fn pa_prevents_thrashing_on_the_new_protocols() {
    let (_, records) = run_quick("protocol-thrashing");
    for cc in ["wound-wait", "wait-die", "mvto"] {
        let peak = ["2", "5", "10", "20", "40", "80"]
            .iter()
            .map(|b| stats(records, &format!("{b}_{cc}")).throughput_per_sec)
            .fold(f64::MIN, f64::max);
        let pa = stats(records, &format!("PA_{cc}")).throughput_per_sec;
        assert!(
            pa > 0.85 * peak,
            "{cc}: PA reached {pa} vs swept peak {peak}"
        );
    }
}

/// Mean |bound − final optimum| over the last quarter of a run.
fn post_jump_err(rec: &RunRecord) -> f64 {
    let traj = rec
        .trajectories
        .as_ref()
        .expect("abl-hybrid keeps trajectories");
    let pts = traj.bound.points();
    let tail = &pts[pts.len() * 3 / 4..];
    let opt = traj.optimum.last_value().expect("optimum recorded");
    tail.iter().map(|&(_, b)| (b - opt).abs()).sum::<f64>() / tail.len() as f64
}

/// The hybrid settles at least as tightly as plain IS after a jump of the
/// optimum, end to end.
#[test]
fn hybrid_tracks_jump_no_worse_than_is() {
    let (_, records) = run_quick("abl-hybrid");
    let err = |label: &str| post_jump_err(records.iter().find(|r| r.label == label).expect(label));
    let (is_err, hybrid_err) = (err("IS"), err("hybrid-IS-PA"));
    assert!(
        hybrid_err <= is_err * 1.1,
        "hybrid settled worse than IS: {hybrid_err} vs {is_err}"
    );
}

/// The α outer loop reacts inside the full simulator loop: the k-jump of
/// `self-tuning-pa-jump` shortens the PA memory at some point after it.
#[test]
fn self_tuning_pa_shortens_memory_on_workload_jump() {
    /// Wraps SelfTuningPa and records α after every update.
    struct AlphaProbe {
        inner: SelfTuningPa,
        log: Arc<Mutex<Vec<f64>>>,
    }
    impl LoadController for AlphaProbe {
        fn update(&mut self, m: &Measurement) -> u32 {
            let b = self.inner.update(m);
            self.log
                .lock()
                .expect("probe lock")
                .push(self.inner.alpha());
            b
        }
        fn current_bound(&self) -> u32 {
            self.inner.current_bound()
        }
    }

    let plan = quick_plan("self-tuning-pa-jump");
    let v = plan
        .variants
        .iter()
        .find(|v| v.label == "self-tuning-PA")
        .expect("self-tuning-PA variant");
    let ControllerSpec::SelfTuningPa(pa) = v.cell.controller else {
        panic!("self-tuning-PA runs {:?}", v.cell.controller);
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let probe = AlphaProbe {
        inner: SelfTuningPa::new(pa, PaOuterParams::default()),
        log: Arc::clone(&log),
    };
    // Replication 0: `v.cell.system` carries the spec seed.
    let mut sim = Simulator::new(
        v.cell.system,
        v.cell.workload.clone(),
        v.cell.cc.initial(),
        v.cell.control,
        Some(Box::new(probe)),
    );
    sim.run(v.cell.horizon_ms);

    let alphas = log.lock().expect("probe lock").clone();
    let Schedule::Jump { at: jump_at, .. } = v.cell.workload.k else {
        panic!("the spec's k is a step, got {:?}", v.cell.workload.k);
    };
    assert_eq!(
        alphas.len(),
        (v.cell.horizon_ms / v.cell.control.sample_interval_ms) as usize
    );
    let jump_idx = (jump_at / v.cell.control.sample_interval_ms) as usize;
    let alpha_at_jump = alphas[jump_idx - 1];
    let min_after = alphas[jump_idx..jump_idx + 40]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_after < alpha_at_jump,
        "memory never shortened after the jump: α {alpha_at_jump} → min {min_after}"
    );
}

/// Same seed, same statistics — also for a new protocol under every
/// victim policy (`abl-victim`'s displacement runs, under wound-wait).
#[test]
fn new_features_are_deterministic() {
    let mut plan = quick_plan("abl-victim");
    for v in &mut plan.variants {
        v.cell.cc = CcSpec::Fixed(CcKind::WoundWait);
    }
    let stats = |records: Vec<RunRecord>| records.into_iter().map(|r| r.stats).collect::<Vec<_>>();
    assert_eq!(
        stats(runner::run_plan(&plan)),
        stats(runner::run_plan(&plan))
    );
}

/// Degenerate controller configurations must stay finite and bounded in
/// the full loop (failure injection: fig14's PA with zero dither and a
/// bound range of one).
#[test]
fn degenerate_controller_configs_stay_sane() {
    let mut plan = quick_plan("fig14");
    let ControllerSpec::Pa(pa) = plan.variants[0].cell.controller else {
        panic!("fig14 runs PA");
    };
    plan.variants[0].cell.controller = ControllerSpec::Pa(PaParams {
        initial_bound: 3,
        min_bound: 3,
        max_bound: 3,
        dither_amplitude: 0.0,
        ..pa
    });
    let records = runner::run_plan(&plan);
    let (stats, traj) = (
        &records[0].stats,
        records[0]
            .trajectories
            .as_ref()
            .expect("fig14 records trajectories"),
    );
    assert!(stats.throughput_per_sec.is_finite());
    assert!(stats.commits > 0);
    for &(_, b) in traj.bound.points() {
        assert_eq!(b, 3.0, "pinned range must pin the bound");
    }
}
