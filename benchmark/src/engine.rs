//! `engine-protocols`: the simulator driven directly, one thread, every
//! CC protocol under two conflict regimes. Bypasses the spec front end,
//! the runner and the report layer, so an engine gain or loss shows
//! undiluted; the two regimes use the CC layer differently (granted path
//! vs block/deadlock/abort/restart/displace path), so a fast-path gain
//! that costs the conflict path shows too.

use std::time::Instant;

use alc_analytic::surface::Schedule;
use alc_core::controller::{IncrementalSteps, IsParams};
use alc_des::dist::Dist;
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::workload::WorkloadConfig;

use crate::spans::Recorder;
use crate::stats::Fnv1a;
use crate::{host, Pass};

/// Simulated horizon of one cell, ms. Sized so a pass over the 12 cells
/// takes a few seconds and three passes fit a run.
pub const HORIZON_MS: f64 = 400_000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Conflicts are rare: nearly every access is granted.
    Low,
    /// A small, write-heavy database: blocking, deadlocks, aborts,
    /// restarts and displacement dominate.
    High,
}

impl Regime {
    pub const ALL: [Regime; 2] = [Regime::Low, Regime::High];

    pub fn name(self) -> &'static str {
        match self {
            Regime::Low => "lowconflict",
            Regime::High => "highconflict",
        }
    }
}

/// Every (protocol, regime) cell, in reporting order.
pub fn cells() -> impl Iterator<Item = (CcKind, Regime)> {
    CcKind::ALL
        .into_iter()
        .flat_map(|cc| Regime::ALL.into_iter().map(move |r| (cc, r)))
}

/// Builds one cell's simulator: Incremental Steps controller on, no
/// warm-up window, analytic-optimum recording off.
pub fn build(cc: CcKind, regime: Regime, seed_offset: u64) -> Simulator {
    let seed = SystemConfig::default().seed.wrapping_add(seed_offset);
    let (sys, workload, control, is) = match regime {
        Regime::Low => (
            SystemConfig {
                db_size: 1_000_000,
                seed,
                ..SystemConfig::default()
            },
            WorkloadConfig::default(),
            ControlConfig {
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            IsParams {
                initial_bound: 400,
                ..IsParams::default()
            },
        ),
        Regime::High => (
            SystemConfig {
                db_size: 4000,
                think: Dist::exponential(300.0),
                seed,
                ..SystemConfig::default()
            },
            WorkloadConfig {
                k: Schedule::Constant(16.0),
                query_frac: Schedule::Constant(0.0),
                write_frac: Schedule::Constant(0.5),
                ..WorkloadConfig::default()
            },
            ControlConfig {
                warmup_ms: 0.0,
                displacement: true,
                ..ControlConfig::default()
            },
            IsParams {
                initial_bound: 50,
                max_bound: 400,
                ..IsParams::default()
            },
        ),
    };
    let mut sim = Simulator::new(
        sys,
        workload,
        cc,
        control,
        Some(Box::new(IncrementalSteps::new(is))),
    );
    sim.set_record_optimum(false);
    sim
}

/// One cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct CellRun {
    pub cc: CcKind,
    pub regime: Regime,
    pub run_s: f64,
    pub events: u64,
    pub commits: u64,
    pub aborts: u64,
}

pub struct EnginePass {
    pub pass: Pass,
    pub cells: Vec<CellRun>,
}

/// Runs every cell for `horizon_ms` of simulated time. Each cell is one
/// op: it fails on zero commits or non-finite statistics. The digest
/// folds every exact count and the bit patterns of the float statistics,
/// so a speed-only change can be seen to leave the simulation identical.
pub fn run_pass(seed_offset: u64, horizon_ms: f64, rec: &mut Recorder) -> EnginePass {
    let mut out = Vec::new();
    let mut digest = Fnv1a::default();
    let mut failed = 0u64;
    let cpu0 = host::cpu_s();
    let t0 = Instant::now();
    for (i, (cc, regime)) in cells().enumerate() {
        let arg = format!("{}.{}", cc.name(), regime.name());
        rec.span("cell", &arg, i as u64, |rec| {
            let mut sim = rec.span("new", "", i as u64, |_| build(cc, regime, seed_offset));
            let t_run = Instant::now();
            let stats = rec.span("run", "", i as u64, |_| sim.run(horizon_ms));
            let run_s = t_run.elapsed().as_secs_f64();
            let events = sim.events_processed();
            for word in [
                events,
                stats.commits,
                stats.aborts,
                stats.displaced,
                stats.throughput_per_sec.to_bits(),
                stats.mean_response_ms.to_bits(),
                stats.mean_mpl.to_bits(),
                stats.mean_bound.to_bits(),
            ] {
                digest.update(&word.to_le_bytes());
            }
            let healthy = stats.commits > 0
                && stats.throughput_per_sec.is_finite()
                && stats.mean_response_ms.is_finite()
                && stats.mean_mpl.is_finite();
            failed += u64::from(!healthy);
            out.push(CellRun {
                cc,
                regime,
                run_s,
                events,
                commits: stats.commits,
                aborts: stats.aborts,
            });
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    EnginePass {
        pass: Pass {
            wall_s,
            cpu_s: host::cpu_s() - cpu0,
            work: out.iter().map(|c| c.events).sum(),
            attempted: out.len() as u64,
            failed,
            digest: Some(digest.digest()),
        },
        cells: out,
    }
}
