#![cfg(test)]
//! Unit tests of the engine as a whole, through its public API, plus
//! the walk of the lifecycle table. A file of its own so `mod.rs` reads
//! as the hot path; still `engine::tests`, so every test keeps its id.

use super::*;
use alc_core::controller::{FixedBound, IncrementalSteps, IsParams, LoadController};
use alc_des::dist::Dist;

fn small_sys(terminals: u32, seed: u64) -> SystemConfig {
    SystemConfig {
        terminals,
        arrival: ArrivalProcess::Closed,
        cpus: 4,
        cpu_phase: Dist::exponential(4.0),
        disk_access: Dist::constant(3.0),
        disk_init_commit: Dist::constant(40.0),
        think: Dist::exponential(200.0),
        restart_delay: Dist::constant(2.0),
        db_size: 500,
        resample_on_restart: true,
        seed,
    }
}

fn no_control(bound: u32) -> ControlConfig {
    ControlConfig {
        sample_interval_ms: 500.0,
        initial_bound: bound,
        warmup_ms: 2_000.0,
        ..ControlConfig::default()
    }
}

fn run_fixed(
    terminals: u32,
    bound: u32,
    cc: CcKind,
    workload: WorkloadConfig,
    horizon: f64,
    seed: u64,
) -> RunStats {
    let mut sim = Simulator::new(small_sys(terminals, seed), workload, cc, no_control(bound), None);
    sim.set_record_optimum(false);
    sim.run(horizon)
}

#[test]
fn transactions_flow_and_commit() {
    let stats = run_fixed(
        20,
        u32::MAX,
        CcKind::Certification,
        WorkloadConfig::default(),
        20_000.0,
        1,
    );
    assert!(stats.commits > 100, "only {} commits", stats.commits);
    assert!(stats.mean_response_ms > 0.0);
    assert!(stats.mean_mpl > 0.0);
}

#[test]
fn deterministic_across_runs() {
    let a = run_fixed(
        15,
        10,
        CcKind::Certification,
        WorkloadConfig::default(),
        10_000.0,
        42,
    );
    let b = run_fixed(
        15,
        10,
        CcKind::Certification,
        WorkloadConfig::default(),
        10_000.0,
        42,
    );
    assert_eq!(a, b, "same seed must give identical statistics");
}

#[test]
fn different_seeds_differ() {
    let a = run_fixed(
        15,
        10,
        CcKind::Certification,
        WorkloadConfig::default(),
        10_000.0,
        1,
    );
    let b = run_fixed(
        15,
        10,
        CcKind::Certification,
        WorkloadConfig::default(),
        10_000.0,
        2,
    );
    assert_ne!(a.commits, b.commits);
}

#[test]
fn gate_bound_caps_mpl() {
    let stats = run_fixed(
        40,
        5,
        CcKind::Certification,
        WorkloadConfig::default(),
        15_000.0,
        3,
    );
    assert!(
        stats.mean_mpl <= 5.0 + 1e-9,
        "observed MPL {} exceeds bound 5",
        stats.mean_mpl
    );
}

#[test]
fn read_only_workload_never_aborts() {
    let workload = WorkloadConfig {
        query_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    for cc in [CcKind::Certification, CcKind::TwoPhaseLocking] {
        let stats = run_fixed(20, u32::MAX, cc, workload.clone(), 15_000.0, 4);
        assert_eq!(stats.aborts, 0, "{cc:?} aborted read-only txns");
        assert!(stats.commits > 50);
    }
}

#[test]
fn contention_causes_aborts_under_certification() {
    // Tiny database + heavy writes: certification must abort runs.
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(8.0),
        query_frac: alc_analytic::surface::Schedule::Constant(0.0),
        write_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let mut sys = small_sys(30, 5);
    sys.db_size = 60;
    let mut sim = Simulator::new(
        sys,
        workload,
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    let stats = sim.run(15_000.0);
    assert!(stats.aborts > 20, "only {} aborts", stats.aborts);
    assert!(stats.abort_ratio > 0.1);
}

#[test]
fn all_protocols_make_progress_under_contention() {
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(6.0),
        query_frac: alc_analytic::surface::Schedule::Constant(0.1),
        write_frac: alc_analytic::surface::Schedule::Constant(0.5),
        ..WorkloadConfig::default()
    };
    for cc in CcKind::ALL {
        let mut sys = small_sys(25, 6);
        sys.db_size = 300;
        let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
        sim.set_record_optimum(false);
        let stats = sim.run(20_000.0);
        assert!(
            stats.commits > 100,
            "{cc:?} starved: {} commits",
            stats.commits
        );
    }
}

#[test]
fn prevention_protocols_abort_instead_of_deadlocking() {
    // Heavy write contention on a small database: detection and
    // prevention must all keep committing; the prevention pair pays
    // with aborts where the detector only aborts on real cycles.
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(8.0),
        query_frac: alc_analytic::surface::Schedule::Constant(0.0),
        write_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let run = |cc: CcKind| {
        let mut sys = small_sys(30, 21);
        sys.db_size = 80;
        let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
        sim.set_record_optimum(false);
        sim.run(20_000.0)
    };
    let detect = run(CcKind::TwoPhaseLocking);
    let wound = run(CcKind::WoundWait);
    let die = run(CcKind::WaitDie);
    for (name, s) in [("2pl", &detect), ("wound-wait", &wound), ("wait-die", &die)] {
        assert!(s.commits > 100, "{name} starved: {} commits", s.commits);
    }
    assert!(
        wound.aborts > detect.aborts && die.aborts > detect.aborts,
        "prevention should abort more than detection: 2pl {} vs ww {} / wd {}",
        detect.aborts,
        wound.aborts,
        die.aborts
    );
}

#[test]
fn mvto_queries_do_not_abort() {
    // MVTO's headline property: read-only transactions never abort,
    // even under write contention (unless their snapshot is pruned,
    // which a 25-terminal run never reaches).
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(6.0),
        query_frac: alc_analytic::surface::Schedule::Constant(0.5),
        write_frac: alc_analytic::surface::Schedule::Constant(0.8),
        ..WorkloadConfig::default()
    };
    let run = |cc: CcKind| {
        let mut sys = small_sys(25, 22);
        sys.db_size = 100;
        let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
        sim.set_record_optimum(false);
        sim.run(20_000.0)
    };
    let occ = run(CcKind::Certification);
    let mv = run(CcKind::Multiversion);
    assert!(mv.commits > 100, "mvto starved");
    assert!(
        mv.abort_ratio < occ.abort_ratio,
        "mvto should abort less than certification under a query mix: {} vs {}",
        mv.abort_ratio,
        occ.abort_ratio
    );
}

#[test]
fn throughput_matches_mva_without_contention() {
    // Read-only => no CC effects; the closed network must match MVA.
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(8.0),
        query_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let sys = SystemConfig {
        terminals: 60,
        arrival: ArrivalProcess::Closed,
        cpus: 4,
        cpu_phase: Dist::exponential(4.0),
        disk_access: Dist::constant(3.0),
        disk_init_commit: Dist::constant(40.0),
        think: Dist::exponential(500.0),
        restart_delay: Dist::constant(2.0),
        db_size: 10_000,
        resample_on_restart: true,
        seed: 7,
    };
    let mut sim = Simulator::new(
        sys,
        workload,
        CcKind::Certification,
        ControlConfig {
            initial_bound: u32::MAX,
            warmup_ms: 10_000.0,
            ..ControlConfig::default()
        },
        None,
    );
    sim.set_record_optimum(false);
    let stats = sim.run(120_000.0);
    // MVA reference: CPU demand 10 phases * 4ms, delay = disk 100ms +
    // think 500ms.
    let net = alc_analytic::mva::ClosedNetwork::new(40.0, 4, 100.0 + 500.0);
    let x = net.throughput(60) * 1000.0; // per second
    let rel_err = (stats.throughput_per_sec - x).abs() / x;
    assert!(
        rel_err < 0.08,
        "simulated {} vs MVA {} (rel err {:.3})",
        stats.throughput_per_sec,
        x,
        rel_err
    );
}

#[test]
fn controller_trajectory_is_recorded() {
    let ctrl = IncrementalSteps::new(IsParams {
        initial_bound: 5,
        max_bound: 60,
        ..IsParams::default()
    });
    let mut sim = Simulator::new(
        small_sys(30, 8),
        WorkloadConfig::default(),
        CcKind::Certification,
        ControlConfig {
            sample_interval_ms: 500.0,
            warmup_ms: 0.0,
            ..ControlConfig::default()
        },
        Some(Box::new(ctrl)),
    );
    sim.set_record_optimum(false);
    sim.run_until(20_000.0);
    let traj = sim.trajectories();
    assert!(traj.bound.len() >= 35, "samples: {}", traj.bound.len());
    assert!(traj.throughput.len() == traj.bound.len());
    // The controller must have moved the bound off its start value.
    let bounds: Vec<f64> = traj.bound.points().iter().map(|&(_, v)| v).collect();
    assert!(bounds.iter().any(|&b| (b - 5.0).abs() > 0.5));
}

#[test]
fn fixed_bound_controller_equivalent_to_static_gate() {
    let a = {
        let mut sim = Simulator::new(
            small_sys(20, 9),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(8),
            None,
        );
        sim.set_record_optimum(false);
        sim.run(15_000.0)
    };
    let b = {
        let mut sim = Simulator::new(
            small_sys(20, 9),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(8),
            Some(Box::new(FixedBound::new(8))),
        );
        sim.set_record_optimum(false);
        sim.run(15_000.0)
    };
    assert_eq!(a.commits, b.commits);
    assert!((a.throughput_per_sec - b.throughput_per_sec).abs() < 1e-9);
}

#[test]
fn displacement_enforces_bound_drop() {
    // A controller that slams the bound down mid-run.
    struct Slammer {
        at: u32,
        calls: u32,
    }
    impl LoadController for Slammer {
        fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
            self.calls += 1;
            if self.calls > 10 {
                2
            } else {
                self.at
            }
        }
        fn current_bound(&self) -> u32 {
            self.at
        }
    }
    let mut sim = Simulator::new(
        small_sys(30, 10),
        WorkloadConfig::default(),
        CcKind::Certification,
        ControlConfig {
            sample_interval_ms: 500.0,
            displacement: true,
            warmup_ms: 0.0,
            ..ControlConfig::default()
        },
        Some(Box::new(Slammer { at: 20, calls: 0 })),
    );
    sim.set_record_optimum(false);
    // Samples fire at 500ms intervals; call 11 (the slam to bound 2)
    // happens at t = 5500ms.
    let stats = sim.run_until(5_600.0);
    assert!(stats.displaced > 0, "displacement never happened");
    assert!(
        sim.gate().in_system() <= 2,
        "bound not enforced: {} in system",
        sim.gate().in_system()
    );
}

#[test]
fn victim_policies_enforce_bound_and_differ() {
    use crate::config::VictimPolicy;
    // A controller that drops the bound sharply mid-run, forcing many
    // displacement decisions.
    struct Stepper {
        calls: u32,
    }
    impl LoadController for Stepper {
        fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
            self.calls += 1;
            if self.calls.is_multiple_of(4) {
                3
            } else {
                25
            }
        }
        fn current_bound(&self) -> u32 {
            25
        }
    }
    let run = |policy: VictimPolicy| {
        let mut sim = Simulator::new(
            small_sys(30, 17),
            WorkloadConfig::default(),
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 400.0,
                displacement: true,
                victim_policy: policy,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            Some(Box::new(Stepper { calls: 0 })),
        );
        sim.set_record_optimum(false);
        sim.run_until(20_000.0)
    };
    let mut commits = Vec::new();
    for policy in VictimPolicy::ALL {
        let stats = run(policy);
        assert!(stats.displaced > 0, "{policy:?} never displaced");
        assert!(stats.commits > 50, "{policy:?} starved");
        commits.push(stats.commits);
    }
    // The policies pick different victims, so the runs diverge.
    assert!(
        commits.iter().any(|&c| c != commits[0]),
        "all victim policies produced identical runs: {commits:?}"
    );
}

#[test]
fn workload_jump_shifts_abort_rate() {
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Jump {
            at: 15_000.0,
            before: 4.0,
            after: 16.0,
        },
        ..WorkloadConfig::default()
    };
    let mut sys = small_sys(25, 11);
    sys.db_size = 400;
    let mut sim = Simulator::new(
        sys,
        workload,
        CcKind::Certification,
        ControlConfig {
            sample_interval_ms: 500.0,
            initial_bound: u32::MAX,
            warmup_ms: 3_000.0,
            ..ControlConfig::default()
        },
        None,
    );
    sim.set_record_optimum(false);
    let before = sim.run_until(15_000.0);
    sim.reset_window();
    let after = sim.run_until(30_000.0);
    assert!(
        after.abort_ratio > before.abort_ratio * 2.0,
        "k jump 4→16 should multiply aborts: {} -> {}",
        before.abort_ratio,
        after.abort_ratio
    );
}

#[test]
fn hot_spots_raise_contention() {
    // Hot-spot extension: Zipf skew concentrates accesses and must
    // raise the abort ratio relative to uniform access.
    let run_with_skew = |skew: f64| {
        let workload = WorkloadConfig {
            access_skew: alc_analytic::surface::Schedule::Constant(skew),
            write_frac: alc_analytic::surface::Schedule::Constant(0.5),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(25, 13);
        sys.db_size = 2000;
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        sim.run(20_000.0)
    };
    let uniform = run_with_skew(0.0);
    let skewed = run_with_skew(0.9);
    assert!(
        skewed.abort_ratio > 1.5 * uniform.abort_ratio.max(0.01),
        "skew should raise aborts: uniform {} vs skewed {}",
        uniform.abort_ratio,
        skewed.abort_ratio
    );
    assert!(skewed.commits > 50, "skewed run starved");
}

#[test]
fn extreme_skew_still_terminates() {
    // The duplicate-rejection fallback must keep instance creation
    // finite even when k is large relative to the hot set.
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(10.0),
        access_skew: alc_analytic::surface::Schedule::Constant(3.0),
        ..WorkloadConfig::default()
    };
    let mut sys = small_sys(10, 14);
    sys.db_size = 50;
    let mut sim = Simulator::new(
        sys,
        workload,
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    let stats = sim.run(10_000.0);
    assert!(stats.commits + stats.aborts > 0);
}

fn open_sys(slots: u32, interarrival_ms: f64, seed: u64) -> SystemConfig {
    SystemConfig {
        arrival: ArrivalProcess::Open {
            interarrival: Dist::exponential(interarrival_ms),
        },
        ..small_sys(slots, seed)
    }
}

#[test]
fn open_arrivals_flow_at_offered_rate() {
    // Î» = 1/50ms = 20/s, far below capacity: throughput â Î», no loss.
    let mut sim = Simulator::new(
        open_sys(60, 50.0, 31),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    let stats = sim.run(60_000.0);
    assert_eq!(stats.lost, 0, "underload must not lose arrivals");
    let rel = (stats.throughput_per_sec - 20.0).abs() / 20.0;
    assert!(
        rel < 0.1,
        "open throughput {} vs offered 20/s",
        stats.throughput_per_sec
    );
}

#[test]
fn open_overload_exhausts_slots_and_counts_losses() {
    // Î» = 200/s against a 10-slot pool with heavy service: losses.
    let mut sim = Simulator::new(
        open_sys(10, 5.0, 32),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    let stats = sim.run(30_000.0);
    assert!(stats.lost > 100, "only {} lost", stats.lost);
    assert!(sim.gate().in_system() <= 10);
    assert!(stats.commits > 0, "system wedged under overload");
}

#[test]
fn open_mode_is_deterministic() {
    let run = || {
        let mut sim = Simulator::new(
            open_sys(40, 20.0, 33),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(15),
            None,
        );
        sim.set_record_optimum(false);
        sim.run(30_000.0)
    };
    assert_eq!(run(), run());
}

#[test]
fn open_overload_admission_control_preserves_goodput() {
    // The classic open-system argument for admission control: offered
    // load far above the thrashing point. Uncontrolled, every arrival
    // enters and data contention destroys goodput; with a fixed gate
    // at a sane MPL, the same offered load commits far more.
    let workload = WorkloadConfig {
        k: alc_analytic::surface::Schedule::Constant(8.0),
        query_frac: alc_analytic::surface::Schedule::Constant(0.0),
        write_frac: alc_analytic::surface::Schedule::Constant(0.8),
        ..WorkloadConfig::default()
    };
    let run = |bound: u32| {
        let mut sys = open_sys(120, 4.0, 34); // 250/s offered
        sys.db_size = 150;
        let mut sim = Simulator::new(
            sys,
            workload.clone(),
            CcKind::Certification,
            no_control(bound),
            None,
        );
        sim.set_record_optimum(false);
        sim.run(40_000.0)
    };
    let uncontrolled = run(u32::MAX);
    let gated = run(8);
    assert!(
        gated.throughput_per_sec > 1.3 * uncontrolled.throughput_per_sec,
        "admission control did not help the open system: gated {} vs open {}",
        gated.throughput_per_sec,
        uncontrolled.throughput_per_sec
    );
}

#[test]
fn think_time_factor_modulates_closed_load() {
    // Halving think time roughly doubles the offered load, so an
    // uncontested system commits substantially more.
    let run = |factor: f64| {
        let workload = WorkloadConfig {
            think_time_factor: alc_analytic::surface::Schedule::Constant(factor),
            ..WorkloadConfig::default()
        };
        run_fixed(20, u32::MAX, CcKind::Certification, workload, 30_000.0, 41)
    };
    let nominal = run(1.0);
    let eager = run(0.25);
    assert!(
        eager.commits as f64 > 1.3 * nominal.commits as f64,
        "shorter think should raise throughput: {} vs {}",
        eager.commits,
        nominal.commits
    );
    // The identity factor must reproduce the default workload exactly
    // (the scenario DSL relies on this to subsume stationary specs).
    let default_run = run_fixed(
        20,
        u32::MAX,
        CcKind::Certification,
        WorkloadConfig::default(),
        30_000.0,
        41,
    );
    assert_eq!(nominal, default_run);
}

#[test]
fn arrival_rate_surge_overloads_the_slot_pool() {
    // A 10× arrival burst mid-run must exhaust the open-mode slots
    // and start counting losses, where the baseline rate loses none.
    let surge_workload = WorkloadConfig {
        arrival_rate_factor: alc_analytic::surface::Schedule::Piecewise(vec![
            (0.0, 1.0),
            (10_000.0, 10.0),
        ]),
        ..WorkloadConfig::default()
    };
    let run = |workload: WorkloadConfig| {
        let mut sim = Simulator::new(
            open_sys(20, 50.0, 42),
            workload,
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        sim.run(30_000.0)
    };
    let baseline = run(WorkloadConfig::default());
    let surged = run(surge_workload);
    assert_eq!(baseline.lost, 0, "baseline must not lose arrivals");
    assert!(surged.lost > 50, "surge lost only {}", surged.lost);
    assert!(
        surged.commits > baseline.commits,
        "the admitted part of the surge should still commit more"
    );
}

/// The CC-switch conservation invariant: across a drain-and-swap
/// boundary every transaction slot stays accounted for (census sums
/// to the population), the in-system count matches the states that
/// hold an MPL slot, commits keep flowing under the new protocol, and
/// the whole run is deterministic.
#[test]
fn cc_switch_drains_swaps_and_conserves_transactions() {
    let run = || {
        let workload = WorkloadConfig {
            write_frac: alc_analytic::surface::Schedule::Constant(0.5),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(25, 77);
        sys.db_size = 200; // enough contention for aborts on both sides
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: 12,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            None,
        );
        sim.set_record_optimum(false);
        sim.set_cc_switches(&[(10_000.0, CcKind::TwoPhaseLocking)]);
        let before = sim.run_until(9_999.0);
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 25, "slot lost pre-switch");
        let after = sim.run_until(30_000.0);
        (before, after, sim)
    };
    let (before, after, sim) = run();
    assert_eq!(sim.current_cc(), CcKind::TwoPhaseLocking);
    assert_eq!(sim.cc_switches_completed(), 1);
    // Conservation: every slot still in exactly one state, and the
    // gate's population matches the states that hold an MPL slot.
    let census = sim.txn_state_census();
    assert_eq!(census.iter().sum::<usize>(), 25, "slot lost in drain");
    assert_eq!(
        sim.gate().in_system() as usize,
        census[2] + census[3] + census[4],
        "in-system count diverged from the running/blocked/restarting states"
    );
    // Monotone counters: the post-switch window did real work, and
    // nothing was un-counted by the swap.
    assert!(after.commits > before.commits, "no progress after switch");
    assert!(after.aborts >= before.aborts);
    // Determinism across reruns.
    let (before2, after2, _) = run();
    assert_eq!(before, before2);
    assert_eq!(after, after2);
}

/// Displacement firing *during* a CC-switch drain must not
/// double-start a parked restart: a displaced `RestartWait` slot
/// moves to the gate queue and re-enters through the release, not
/// through the parked list (the swap's census debug-assert and the
/// conservation checks below catch a double `cc.begin`).
#[test]
fn displacement_during_drain_does_not_double_start_parked_restarts() {
    let run = || {
        // High write contention on a small database + long restart
        // delays: many slots sit in RestartWait at any moment, so
        // drains regularly park restarts. Displacement is on and the
        // controller slams the bound down every few samples, so
        // victims (including parked RestartWait slots) are taken
        // while drains are in flight.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(8.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.0),
            write_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(30, 81);
        sys.db_size = 60;
        sys.restart_delay = Dist::constant(400.0);
        struct Slammer {
            calls: u32,
        }
        impl LoadController for Slammer {
            fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
                self.calls += 1;
                if self.calls.is_multiple_of(3) {
                    2
                } else {
                    25
                }
            }
            fn current_bound(&self) -> u32 {
                25
            }
        }
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 300.0,
                displacement: true,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            Some(Box::new(Slammer { calls: 0 })),
        );
        sim.set_record_optimum(false);
        let switches: Vec<(f64, CcKind)> = (1..20)
            .map(|i| {
                (
                    f64::from(i) * 1_000.0,
                    if i % 2 == 0 {
                        CcKind::Certification
                    } else {
                        CcKind::WaitDie
                    },
                )
            })
            .collect();
        sim.set_cc_switches(&switches);
        let stats = sim.run_until(25_000.0);
        (stats, sim)
    };
    let (stats, sim) = run();
    assert!(stats.displaced > 0, "scenario never displaced");
    assert!(sim.cc_switches_completed() > 5, "drains never completed");
    assert!(stats.commits > 50, "system wedged");
    // Conservation after heavy drain × displacement interleaving.
    let census = sim.txn_state_census();
    assert_eq!(census.iter().sum::<usize>(), 30);
    assert_eq!(
        sim.gate().in_system() as usize,
        census[2] + census[3] + census[4]
    );
    assert_eq!(
        sim.cc_in_flight() as usize,
        census[2] + census[3],
        "cc_active must equal the running+blocked census"
    );
    let (stats2, _) = run();
    assert_eq!(stats, stats2, "switch+displacement run must be deterministic");
}

#[test]
fn cc_switch_without_contention_is_transparent() {
    // Read-only workload: the switch must not lose a single commit
    // relative to... itself on rerun, and both protocols commit.
    let workload = WorkloadConfig {
        query_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let mut sim = Simulator::new(
        small_sys(15, 78),
        workload,
        CcKind::Certification,
        no_control(10),
        None,
    );
    sim.set_record_optimum(false);
    sim.set_cc_switches(&[(8_000.0, CcKind::Multiversion), (16_000.0, CcKind::WaitDie)]);
    let stats = sim.run_until(24_000.0);
    assert_eq!(sim.cc_switches_completed(), 2);
    assert_eq!(sim.current_cc(), CcKind::WaitDie);
    assert_eq!(stats.aborts, 0, "read-only runs must never abort");
    assert!(stats.commits > 100);
}

#[test]
fn fault_kill_restart_changes_capacity_and_recovers() {
    let run = || {
        let mut sim = Simulator::new(
            small_sys(30, 79),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        // Kill 3 of 4 CPUs during [8s, 20s), then restore.
        sim.set_faults(&[(8_000.0, -3), (20_000.0, 3)]);
        // Window boundaries sit just before the fault events (an
        // event at exactly t fires within `run_until(t)`).
        let healthy = sim.run_until(7_999.0);
        assert_eq!(sim.cpu_servers(), 4);
        sim.reset_window();
        let degraded = sim.run_until(19_999.0);
        assert_eq!(sim.cpu_servers(), 1);
        sim.reset_window();
        let recovered = sim.run_until(32_000.0);
        assert_eq!(sim.cpu_servers(), 4);
        (healthy, degraded, recovered)
    };
    let (healthy, degraded, recovered) = run();
    assert!(
        degraded.throughput_per_sec < 0.7 * healthy.throughput_per_sec,
        "losing 3 of 4 CPUs should throttle throughput: {} vs {}",
        degraded.throughput_per_sec,
        healthy.throughput_per_sec
    );
    assert!(
        recovered.throughput_per_sec > 1.3 * degraded.throughput_per_sec,
        "restart should restore throughput: {} vs {}",
        recovered.throughput_per_sec,
        degraded.throughput_per_sec
    );
    // Census conservation under faults, and determinism.
    let again = run();
    assert_eq!((healthy, degraded, recovered), again);
}

#[test]
fn total_cpu_outage_stalls_until_restart() {
    let mut sim = Simulator::new(
        small_sys(10, 80),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    sim.set_faults(&[(5_000.0, -4), (15_000.0, 4)]);
    sim.run_until(5_000.0);
    sim.reset_window();
    let out = sim.run_until(15_000.0);
    // With every CPU dead, phases cannot complete — only runs already
    // past their last CPU burst may still trickle through the disk.
    assert!(
        out.commits <= 10,
        "a total outage should stall commits, saw {}",
        out.commits
    );
    sim.reset_window();
    let back = sim.run_until(30_000.0);
    assert!(back.commits > 50, "system must recover after the restart");
    assert_eq!(sim.txn_state_census().iter().sum::<usize>(), 10);
}

/// Closed-loop protocol selection: a conflict-threshold policy must
/// escalate to the high-contention candidate when the workload turns
/// hot, and de-escalate when it calms — with every decision recorded
/// in the switch-event trace, conservation intact, and the whole run
/// deterministic.
#[test]
fn adaptive_cc_switches_on_conflict_and_conserves() {
    use alc_core::meta::{GuardParams, Ladder, LadderSignal};
    let run = || {
        // Calm (k=2, few writes) → hot (k=8, small db) → calm again.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Piecewise(vec![
                (0.0, 2.0),
                (8_000.0, 8.0),
                (22_000.0, 2.0),
            ]),
            query_frac: alc_analytic::surface::Schedule::Constant(0.0),
            write_frac: alc_analytic::surface::Schedule::Constant(0.8),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(25, 91);
        sys.db_size = 120;
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: 15,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            None,
        );
        sim.set_record_optimum(false);
        let policy = Ladder::new(
            LadderSignal::ConflictsPerTxn,
            2,
            0.6,
            0.5,
            GuardParams {
                min_dwell_ms: 3_000.0,
                cooldown_ms: 1_000.0,
                hysteresis: 0.2,
            },
        );
        sim.set_adaptive_cc(
            vec![CcKind::Certification, CcKind::TwoPhaseLocking],
            Box::new(policy),
        );
        let stats = sim.run_until(35_000.0);
        (stats, sim)
    };
    let (stats, sim) = run();
    let switches = &sim.trajectories().switches;
    assert!(
        switches.len() >= 2,
        "expected an escalation and a de-escalation, saw {switches:?}"
    );
    assert_eq!(switches[0].from, CcKind::Certification);
    assert_eq!(switches[0].to, CcKind::TwoPhaseLocking);
    assert_eq!(
        sim.cc_switches_completed(),
        switches.len() as u64,
        "trace must record every completed switch"
    );
    // The dwell guard: consecutive decisions at least min_dwell apart.
    for w in switches.windows(2) {
        assert!(
            w[1].decided_at_ms - w[0].decided_at_ms >= 3_000.0,
            "decisions at {} and {} violate min_dwell",
            w[0].decided_at_ms,
            w[1].decided_at_ms
        );
    }
    for e in switches {
        assert!(e.completed_at_ms >= e.decided_at_ms);
    }
    // Conservation across policy-driven drains.
    let census = sim.txn_state_census();
    assert_eq!(census.iter().sum::<usize>(), 25, "slot lost in drain");
    assert_eq!(
        sim.gate().in_system() as usize,
        census[2] + census[3] + census[4]
    );
    assert!(stats.commits > 100, "system starved under adaptation");
    // Determinism across reruns (stats and the full switch trace).
    let (stats2, sim2) = run();
    assert_eq!(stats, stats2);
    assert_eq!(*switches, sim2.trajectories().switches);
}

/// An adaptive run whose policy never fires must be byte-identical
/// to the same run without any meta-controller: the wiring itself
/// is free.
#[test]
fn adaptive_cc_with_quiet_policy_is_transparent() {
    use alc_core::meta::{GuardParams, Ladder, LadderSignal};
    let base = || {
        let mut sim = Simulator::new(
            small_sys(20, 92),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(10),
            None,
        );
        sim.set_record_optimum(false);
        sim
    };
    let plain = {
        let mut sim = base();
        sim.run(20_000.0)
    };
    let adaptive = {
        // A threshold far above anything the default workload can
        // produce: the policy observes but never acts.
        let policy = Ladder::new(
            LadderSignal::ConflictsPerTxn,
            2,
            1e9,
            0.3,
            GuardParams {
                min_dwell_ms: 1_000.0,
                cooldown_ms: 0.0,
                hysteresis: 0.1,
            },
        );
        let mut sim2 = base();
        sim2.set_adaptive_cc(
            vec![CcKind::Certification, CcKind::TwoPhaseLocking],
            Box::new(policy),
        );
        sim2.run(20_000.0)
    };
    assert_eq!(plain, adaptive);
}

#[test]
#[should_panic(expected = "mutually exclusive")]
fn adaptive_cc_rejects_scheduled_switch_mix() {
    use alc_core::meta::{GuardParams, Ladder, LadderSignal};
    let mut sim = Simulator::new(
        small_sys(10, 93),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(5),
        None,
    );
    sim.set_cc_switches(&[(1_000.0, CcKind::WaitDie)]);
    sim.set_adaptive_cc(
        vec![CcKind::Certification, CcKind::WaitDie],
        Box::new(Ladder::new(
            LadderSignal::ConflictsPerTxn,
            2,
            1.0,
            0.5,
            GuardParams {
                min_dwell_ms: 0.0,
                cooldown_ms: 0.0,
                hysteresis: 0.0,
            },
        )),
    );
}

/// Scheduled phase switches also land in the switch-event trace, so
/// `time_in_protocol` columns work for `cc.phases` specs too.
#[test]
fn scheduled_switches_are_recorded_in_the_trace() {
    let workload = WorkloadConfig {
        query_frac: alc_analytic::surface::Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let mut sim = Simulator::new(
        small_sys(15, 94),
        workload,
        CcKind::Certification,
        no_control(10),
        None,
    );
    sim.set_record_optimum(false);
    sim.set_cc_switches(&[(8_000.0, CcKind::Multiversion)]);
    sim.run_until(20_000.0);
    let switches = &sim.trajectories().switches;
    assert_eq!(switches.len(), 1);
    assert_eq!(switches[0].from, CcKind::Certification);
    assert_eq!(switches[0].to, CcKind::Multiversion);
    assert!(switches[0].decided_at_ms >= 8_000.0);
    assert!(switches[0].completed_at_ms >= switches[0].decided_at_ms);
}

#[test]
fn little_law_consistency() {
    // mean_mpl ≈ throughput × mean in-system residence. Residence is
    // response minus queue wait; with an unlimited gate there is no
    // queueing, so response == residence.
    let stats = run_fixed(
        25,
        u32::MAX,
        CcKind::Certification,
        WorkloadConfig::default(),
        40_000.0,
        12,
    );
    let little = stats.throughput_per_sec / 1000.0 * stats.mean_response_ms;
    let rel = (little - stats.mean_mpl).abs() / stats.mean_mpl;
    assert!(
        rel < 0.15,
        "Little's law violated: X*R = {little}, mean MPL = {}",
        stats.mean_mpl
    );
}

// ------------------------------------------------------------------
// Client mode
// ------------------------------------------------------------------

use crate::client::{ClientConfig, RetryPolicy};

fn client_pool(population: u32, timeout_ms: f64) -> ClientConfig {
    ClientConfig::new(population, Dist::constant(timeout_ms))
}

fn assert_client_conservation(sim: &Simulator) {
    let s = sim.client_stats().expect("client mode");
    assert_eq!(
        s.issued,
        s.committed + s.abandoned + s.in_flight,
        "request conservation violated: {s:?}"
    );
    assert_eq!(
        s.attempts,
        s.first_attempts + s.retries,
        "attempt conservation violated: {s:?}"
    );
}

#[test]
fn patient_clients_commit_and_conserve_requests() {
    // Generous timeout: clients behave like slightly richer terminals.
    let mut sim = Simulator::new(
        small_sys(20, 7),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(u32::MAX),
        None,
    );
    sim.set_record_optimum(false);
    sim.set_clients(client_pool(20, 60_000.0));
    let stats = sim.run(20_000.0);
    let s = sim.client_stats().expect("client mode");
    assert!(stats.commits > 100, "only {} commits", stats.commits);
    assert_eq!(s.committed, stats.commits, "every commit is a client commit");
    assert_eq!(s.timeouts, 0, "nobody should time out at this patience");
    assert_eq!(s.retries, 0);
    assert_client_conservation(&sim);
}

#[test]
fn impatient_clients_time_out_retry_and_conserve() {
    // Tight timeout against a tiny gate: timeouts and retries flow.
    let mut sim = Simulator::new(
        small_sys(16, 11),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(2),
        None,
    );
    sim.set_record_optimum(false);
    let mut cfg = client_pool(16, 120.0);
    cfg.retry = RetryPolicy {
        base_ms: 40.0,
        factor: 2.0,
        max_ms: 500.0,
        jitter: 0.5,
    };
    cfg.max_retries = 2;
    sim.set_clients(cfg);
    sim.run(20_000.0);
    let s = sim.client_stats().expect("client mode");
    assert!(s.timeouts > 0, "expected timeouts: {s:?}");
    assert!(s.retries > 0, "expected retries: {s:?}");
    assert!(s.abandoned > 0, "expected abandonment: {s:?}");
    assert_client_conservation(&sim);
    let census = sim.txn_state_census();
    assert_eq!(census.iter().sum::<usize>(), 16, "slots conserved");
}

#[test]
fn client_runs_are_deterministic() {
    let run = || {
        let mut sim = Simulator::new(
            small_sys(12, 33),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(3),
            None,
        );
        sim.set_record_optimum(false);
        let mut cfg = client_pool(12, 200.0);
        cfg.retry = RetryPolicy {
            base_ms: 30.0,
            factor: 2.0,
            max_ms: 400.0,
            jitter: 0.5,
        };
        sim.set_clients(cfg);
        let stats = sim.run(15_000.0);
        (stats, sim.client_stats())
    };
    assert_eq!(run(), run(), "same seed must give identical client runs");
}

#[test]
fn clientless_runs_are_unperturbed_by_the_client_code_path() {
    // The client layer must be invisible when unused: identical
    // stats to a build that never had it. (Golden CSVs pin this
    // repo-wide; this is the in-crate canary.)
    let a = run_fixed(
        15,
        10,
        CcKind::Certification,
        WorkloadConfig::default(),
        10_000.0,
        42,
    );
    assert!(a.commits > 0);
    assert_eq!(a.lost, 0);
}

#[test]
fn retry_shedding_bounces_retries_at_a_saturated_gate() {
    let mut sim = Simulator::new(
        small_sys(16, 13),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(1),
        None,
    );
    sim.set_record_optimum(false);
    let mut cfg = client_pool(16, 100.0);
    cfg.shed_retries = true;
    cfg.max_retries = 3;
    sim.set_clients(cfg);
    sim.run(15_000.0);
    let s = sim.client_stats().expect("client mode");
    assert!(s.shed > 0, "a bound of 1 must shed retries: {s:?}");
    assert_client_conservation(&sim);
}

#[test]
fn client_trajectories_record_interval_deltas_only_in_client_mode() {
    let mut plain = Simulator::new(
        small_sys(10, 3),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(5),
        None,
    );
    plain.set_record_optimum(false);
    plain.run(8_000.0);
    assert!(plain.trajectories().attempts.is_empty());
    assert!(plain.trajectories().retries.is_empty());
    assert!(plain.trajectories().abandons.is_empty());

    let mut sim = Simulator::new(
        small_sys(10, 3),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(5),
        None,
    );
    sim.set_record_optimum(false);
    sim.set_clients(client_pool(10, 500.0));
    sim.run(8_000.0);
    let traj = sim.trajectories();
    assert!(!traj.attempts.is_empty());
    assert_eq!(traj.attempts.len(), traj.retries.len());
    assert_eq!(traj.attempts.len(), traj.abandons.len());
}

/// Walks the lifecycle table: the legal edges against the span stacks,
/// through the emitter the lifecycle writer uses.
#[test]
fn lifecycle_edges_keep_every_span_stack_balanced() {
    use alc_trace::{Phase, TraceEvent};
    use std::sync::{Arc, Mutex};

    struct Spans(Arc<Mutex<Vec<(bool, &'static str)>>>);
    impl TraceSink for Spans {
        fn emit(&mut self, ev: &TraceEvent) {
            if matches!(ev.ph, Phase::Begin | Phase::End) {
                let begin = matches!(ev.ph, Phase::Begin);
                self.0.lock().unwrap().push((begin, ev.name));
            }
        }
    }

    let emitted = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulator::new(
        small_sys(1, 1),
        WorkloadConfig::default(),
        CcKind::Certification,
        no_control(1),
        None,
    );
    sim.set_trace_sink(Box::new(Spans(Arc::clone(&emitted))));

    assert!(LIFECYCLE[THINKING].0.is_empty(), "a thinking slot holds a span");
    let mut reached = vec![THINKING];
    for (from, &(held, in_cc, next)) in LIFECYCLE.iter().enumerate() {
        assert_eq!(in_cc, from == RUNNING || from == BLOCKED, "state {from}");
        assert!(!next.contains(&from), "state {from} has a self edge");
        for &to in next {
            emitted.lock().unwrap().clear();
            sim.tr_spans(0, held, LIFECYCLE[to].0, "edge");
            // Every end closes the innermost open span, and what is open
            // afterwards is exactly what the new state holds.
            let mut open = held.to_vec();
            for &(begin, name) in emitted.lock().unwrap().iter() {
                if begin {
                    open.push(name);
                } else {
                    assert_eq!(open.pop(), Some(name), "edge {from} -> {to}");
                }
            }
            assert_eq!(open, LIFECYCLE[to].0, "edge {from} -> {to}");
            if !reached.contains(&to) {
                reached.push(to);
            }
        }
        // Every state can be left for Thinking, where all spans are closed.
        assert!(from == THINKING || next.contains(&THINKING), "state {from}");
    }
    assert_eq!(reached.len(), LIFECYCLE.len(), "a state no edge leads to");
}

/// A database of 10¹² items runs under every protocol, and no protocol's
/// per-item table outgrows the live working set: per-item state follows
/// the runs in flight, not `db_size` (db-sized tables asked the allocator
/// for 4–9 TB here and aborted).
#[test]
fn a_huge_database_runs_in_memory_sized_by_the_live_runs() {
    for cc in CcKind::ALL {
        let sys = SystemConfig {
            db_size: 1_000_000_000_000,
            ..SystemConfig::default()
        };
        let control = no_control(u32::MAX);
        let mut sim = Simulator::new(sys, WorkloadConfig::default(), cc, control, None);
        sim.set_record_optimum(false);
        let stats = sim.run(20_000.0);
        assert!(stats.commits > 0, "{cc:?} committed nothing");
        // 400 terminals of 8 accesses: 4096–16384 slots are read here.
        let slots = sim.cc.item_capacity();
        assert!(slots <= 1 << 16, "{cc:?}: {slots} slots of per-item state");
    }
}
