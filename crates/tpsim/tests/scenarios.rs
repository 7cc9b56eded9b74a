//! Engine mechanics on hand-built systems: schedules that move the
//! optimum or drive the simulator, the gate queue's share of the
//! response time, and 2PL's blocking against Tay's locking model. (The
//! controller-in-the-loop results run the checked-in specs; they are the
//! facade's `tests/`.)

use alc_analytic::surface::Schedule;
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::{RunStats, Simulator};
use alc_tpsim::workload::WorkloadConfig;

fn sys(seed: u64) -> SystemConfig {
    SystemConfig {
        terminals: 100,
        cpus: 8,
        db_size: 400,
        think: alc_des::dist::Dist::exponential(300.0),
        disk_access: alc_des::dist::Dist::constant(2.0),
        disk_init_commit: alc_des::dist::Dist::constant(50.0),
        seed,
        ..SystemConfig::default()
    }
}

/// One certification run at a static MPL bound, no controller.
fn static_run(seed: u64, workload: WorkloadConfig, bound: u32, horizon_ms: f64) -> RunStats {
    let control = ControlConfig {
        sample_interval_ms: 1000.0,
        warmup_ms: 0.0,
        initial_bound: bound,
        ..ControlConfig::default()
    };
    let mut sim = Simulator::new(sys(seed), workload, CcKind::Certification, control, None);
    sim.set_record_optimum(false);
    sim.run(horizon_ms)
}

#[test]
fn ramp_schedule_moves_optimum_gradually() {
    let workload = WorkloadConfig {
        k: Schedule::Ramp {
            from: 4.0,
            to: 12.0,
            t_start: 20_000.0,
            t_end: 100_000.0,
        },
        ..WorkloadConfig::default()
    };
    let s = sys(36);
    let early = workload.analytic_optimum(0.0, &s, 200);
    let mid = workload.analytic_optimum(60_000.0, &s, 200);
    let late = workload.analytic_optimum(120_000.0, &s, 200);
    assert!(early > mid && mid > late, "{early} {mid} {late}");
}

#[test]
fn piecewise_schedule_drives_the_simulator() {
    let workload = WorkloadConfig {
        k: Schedule::Piecewise(vec![(0.0, 4.0), (20_000.0, 8.0), (40_000.0, 6.0)]),
        ..WorkloadConfig::default()
    };
    let stats = static_run(37, workload, 40, 60_000.0);
    assert!(stats.commits > 500);
}

#[test]
fn queue_wait_counts_toward_response_time() {
    // With a tight bound, the gate queue grows and user-visible response
    // time must include the wait (Little's law over the whole station).
    let tight = static_run(39, WorkloadConfig::default(), 3, 60_000.0);
    let loose = static_run(39, WorkloadConfig::default(), 60, 60_000.0);
    assert!(
        tight.mean_response_ms > 2.0 * loose.mean_response_ms,
        "queue wait missing from response: tight {} vs loose {}",
        tight.mean_response_ms,
        loose.mean_response_ms
    );
}

/// Mean `txn_state_census()[BLOCKED]` of 2PL with `n` transactions in a
/// system shaped as Tay's model assumes: every slot always runs (no
/// think time, a CPU each, no gate bound), every access takes a write
/// lock, and no init/commit I/O holds locks outside the access phases
/// (Tay's uniform lock hold does not model it: with the default 150 ms
/// init/commit I/O the engine blocks only 0.53–0.60 of Tay's count).
/// Sampled every 2 ms over 100 s after a 5 s warm-up.
fn two_pl_mean_blocked(n: u32, seed: u64) -> f64 {
    const BLOCKED: usize = 3;
    let sys = SystemConfig {
        terminals: n,
        cpus: n,
        db_size: 10_000,
        think: alc_des::dist::Dist::constant(0.0),
        disk_init_commit: alc_des::dist::Dist::constant(0.0),
        restart_delay: alc_des::dist::Dist::constant(5.0),
        seed,
        ..SystemConfig::default()
    };
    let workload = WorkloadConfig {
        k: Schedule::Constant(8.0),
        query_frac: Schedule::Constant(0.0),
        write_frac: Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    let control = ControlConfig {
        initial_bound: u32::MAX,
        warmup_ms: 0.0,
        ..ControlConfig::default()
    };
    let mut sim = Simulator::new(sys, workload, CcKind::TwoPhaseLocking, control, None);
    sim.set_record_optimum(false);
    let (warmup_ms, step_ms, samples) = (5_000.0, 2.0, 50_000);
    sim.run_until(warmup_ms);
    let mut blocked = 0usize;
    for i in 1..=samples {
        sim.run_until(warmup_ms + f64::from(i) * step_ms);
        blocked += sim.txn_state_census()[BLOCKED];
    }
    blocked as f64 / f64::from(samples)
}

#[test]
fn two_phase_locking_blocks_as_tay_predicts_at_low_contention() {
    // Tay, Goodman & Suri: b(n) ≈ k²·n·(n−1)/(4D), the quadratic growth
    // the paper's §1 builds on. At α = k²n/D ≤ 0.26 the engine blocks
    // 0.75–0.85 of Tay's count (seeds 1–8), and b(40)/b(20) reads
    // 3.94–4.32 against Tay's 4.105.
    let tay = alc_analytic::tay::TayModel::new(8, 10_000);
    let tay_ratio = tay.blocked(40.0) / tay.blocked(20.0);
    // One thread per seed: these four runs are most of this binary's time.
    let seeds = [1, 2];
    let runs = std::thread::scope(|s| {
        seeds
            .map(|seed| s.spawn(move || [20, 40].map(|n| two_pl_mean_blocked(n, seed))))
            .map(|h| h.join().expect("2PL run panicked"))
    });
    for (seed, [b20, b40]) in seeds.into_iter().zip(runs) {
        for (n, b) in [(20.0, b20), (40.0, b40)] {
            let share = b / tay.blocked(n);
            assert!(
                (0.65..=1.0).contains(&share),
                "seed {seed}, n = {n}: engine blocks {b:.3}, Tay {:.3} (ratio {share:.3})",
                tay.blocked(n)
            );
        }
        let ratio = b40 / b20;
        assert!(
            (ratio / tay_ratio - 1.0).abs() <= 0.12,
            "seed {seed}: b(40)/b(20) = {ratio:.3}, Tay {tay_ratio:.3}"
        );
    }
}
