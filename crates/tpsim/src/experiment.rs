//! Small experiment runners for tests: one stationary run, a bound
//! sweep, one controlled run with its trajectories.
//!
//! Each helper wraps [`Simulator`] with the warm-up / measurement-window
//! discipline of §9's experiments and returns plain data. The paper's
//! figures do not come through here: their runs are specs under
//! `scenarios/`, executed and presented by `alc-scenario`.
//!
//! # Parallelism and determinism
//!
//! Sweeps fan their independent runs out with `rayon`. Every run is fully determined by its own `(SystemConfig,
//! WorkloadConfig, CcKind, ControlConfig)` — all RNG streams derive from
//! `SystemConfig::seed`, nothing is shared between runs, and results are
//! collected in input order — so parallel and serial execution produce
//! identical output (`parallel_sweep_matches_serial` below pins this).

use alc_core::controller::LoadController;
use rayon::prelude::*;

use crate::config::{CcKind, ControlConfig, SystemConfig};
use crate::engine::{RunStats, Simulator, Trajectories};
use crate::workload::WorkloadConfig;

/// One point of a stationary sweep.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepPoint {
    /// The swept MPL bound.
    pub x: u32,
    /// Steady-state statistics at that point.
    pub stats: RunStats,
}

/// Runs one stationary configuration with a fixed MPL bound (or
/// `u32::MAX` for "without control") and returns steady-state statistics.
pub fn stationary_run(
    sys: &SystemConfig,
    workload: &WorkloadConfig,
    cc: CcKind,
    bound: u32,
    control: &ControlConfig,
    horizon_ms: f64,
) -> RunStats {
    let mut sim = Simulator::new(
        *sys,
        workload.clone(),
        cc,
        ControlConfig {
            initial_bound: bound,
            ..*control
        },
        None,
    );
    sim.set_record_optimum(false);
    sim.run(horizon_ms)
}

/// Sweeps the fixed MPL bound over `bounds` under a stationary workload —
/// the raw material of the Figure 1 load–throughput curve.
///
/// The per-bound runs are independent and execute in parallel; the
/// returned points are in `bounds` order and identical to a serial sweep.
pub fn sweep_bounds(
    sys: &SystemConfig,
    workload: &WorkloadConfig,
    cc: CcKind,
    bounds: &[u32],
    control: &ControlConfig,
    horizon_ms: f64,
) -> Vec<SweepPoint> {
    bounds
        .par_iter()
        .map(|&b| SweepPoint {
            x: b,
            stats: stationary_run(sys, workload, cc, b, control, horizon_ms),
        })
        .collect()
}

/// Runs a dynamic-workload scenario under a controller and returns both
/// the aggregate statistics and the trajectories (Figures 13/14).
pub fn run_trajectory(
    sys: &SystemConfig,
    workload: &WorkloadConfig,
    cc: CcKind,
    control: &ControlConfig,
    controller: Box<dyn LoadController>,
    horizon_ms: f64,
    record_optimum: bool,
) -> (RunStats, Trajectories) {
    let mut sim = Simulator::new(*sys, workload.clone(), cc, *control, Some(controller));
    sim.set_record_optimum(record_optimum);
    let stats = sim.run(horizon_ms);
    (stats, sim.trajectories().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalProcess;
    use alc_core::controller::{IncrementalSteps, IsParams};
    use alc_des::dist::Dist;

    fn sys() -> SystemConfig {
        SystemConfig {
            terminals: 30,
            arrival: ArrivalProcess::Closed,
            cpus: 4,
            cpu_phase: Dist::exponential(4.0),
            disk_access: Dist::constant(3.0),
            disk_init_commit: Dist::constant(40.0),
            think: Dist::exponential(200.0),
            restart_delay: Dist::constant(2.0),
            db_size: 400,
            resample_on_restart: true,
            seed: 21,
        }
    }

    fn quick_control() -> ControlConfig {
        ControlConfig {
            sample_interval_ms: 500.0,
            warmup_ms: 2_000.0,
            ..ControlConfig::default()
        }
    }

    #[test]
    fn sweep_bounds_returns_a_point_per_bound() {
        let pts = sweep_bounds(
            &sys(),
            &WorkloadConfig::default(),
            CcKind::Certification,
            &[2, 8, 30],
            &quick_control(),
            10_000.0,
        );
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].x, 2);
        assert!(pts.iter().all(|p| p.stats.commits > 0));
        // A bound of 2 on 30 terminals throttles far below bound 30.
        assert!(pts[0].stats.throughput_per_sec < pts[2].stats.throughput_per_sec);
    }

    /// The acceptance property of the parallel experiment layer: a
    /// rayon-parallel sweep is byte-identical to the serial equivalent.
    #[test]
    fn parallel_sweep_matches_serial() {
        let bounds = [2u32, 5, 8, 12, 20, 30];
        let parallel = sweep_bounds(
            &sys(),
            &WorkloadConfig::default(),
            CcKind::Certification,
            &bounds,
            &quick_control(),
            8_000.0,
        );
        let serial: Vec<SweepPoint> = bounds
            .iter()
            .map(|&b| SweepPoint {
                x: b,
                stats: stationary_run(
                    &sys(),
                    &WorkloadConfig::default(),
                    CcKind::Certification,
                    b,
                    &quick_control(),
                    8_000.0,
                ),
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn run_trajectory_produces_series() {
        let ctrl = Box::new(IncrementalSteps::new(IsParams {
            initial_bound: 5,
            max_bound: 64,
            ..IsParams::default()
        }));
        let (stats, traj) = run_trajectory(
            &sys(),
            &WorkloadConfig::default(),
            CcKind::Certification,
            &ControlConfig {
                warmup_ms: 0.0,
                ..quick_control()
            },
            ctrl,
            10_000.0,
            true,
        );
        assert!(stats.commits > 0);
        assert!(traj.bound.len() >= 15);
        assert_eq!(traj.optimum.len(), traj.bound.len());
        // The analytic optimum for a stationary workload is a constant line.
        let opts: Vec<f64> = traj.optimum.points().iter().map(|&(_, v)| v).collect();
        assert!(opts.windows(2).all(|w| w[0] == w[1]));
    }
}
