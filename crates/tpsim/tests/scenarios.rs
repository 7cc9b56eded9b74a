//! Engine mechanics under time-varying workloads: schedules that move
//! the optimum or drive the simulator, and the gate queue's share of the
//! response time. (The controller-in-the-loop results run the checked-in
//! specs; they are the facade's `tests/`.)

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
