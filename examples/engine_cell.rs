//! One `engine-protocols` cell per process: the simulator built exactly
//! as `benchmark/src/engine.rs` builds it (same configs, seed offset 0),
//! run for 400 000 simulated ms, then events per wall second and the
//! process's peak resident set (`VmHWM`, Linux only) printed on one line.
//!
//! A process of its own per cell is what makes the peak a cell's own:
//! the ledger runs all twelve in one process and reports their maximum.
//! Two optional arguments override the cell's database size and access
//! skew, to measure a table outside the ledger's configs (a Zipf
//! hot spot over a database larger than the per-item tables, say).
//!
//! ```sh
//! cargo run --release --example engine_cell -- <cc> <lowconflict|highconflict> [db_size] [skew]
//! # certification.lowconflict db_size=1000000 skew=0 events=… events_per_s=… commits=… vmhwm_kb=…
//! ```
//!
//! `<cc>` is a protocol name as `CcKind::name` prints it
//! (`certification`, `2pl`, `timestamp`, `wound-wait`, `wait-die`,
//! `multiversion`). Compare builds in alternating pairs: a shared host
//! drifts by tens of percent.

use std::time::Instant;

use adaptive_load_control::analytic::surface::Schedule;
use adaptive_load_control::core::controller::{IncrementalSteps, IsParams};
use adaptive_load_control::des::dist::Dist;
use adaptive_load_control::tpsim::config::{CcKind, ControlConfig, SystemConfig};
use adaptive_load_control::tpsim::engine::Simulator;
use adaptive_load_control::tpsim::workload::WorkloadConfig;

const HORIZON_MS: f64 = 400_000.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: engine_cell <cc> <lowconflict|highconflict> [db_size] [skew]";
    let (Some(cc), Some(regime)) = (args.first(), args.get(1)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let Some(kind) = CcKind::ALL.into_iter().find(|k| k.name() == cc) else {
        eprintln!(
            "unknown protocol `{cc}`; one of: {:?}",
            CcKind::ALL.map(CcKind::name)
        );
        std::process::exit(2);
    };
    let low = match regime.as_str() {
        "lowconflict" => true,
        "highconflict" => false,
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let number = |i: usize| {
        args.get(i).map(|s| {
            s.parse::<f64>().unwrap_or_else(|_| {
                eprintln!("not a number: `{s}`");
                std::process::exit(2)
            })
        })
    };
    let (mut sim, db_size) = build(kind, low, number(2).map(|d| d as u64), number(3));
    let t = Instant::now();
    let stats = sim.run(HORIZON_MS);
    let run_s = t.elapsed().as_secs_f64();
    let events = sim.events_processed();
    println!(
        "{cc}.{regime} db_size={db_size} skew={} events={events} events_per_s={:.0} commits={} vmhwm_kb={}",
        number(3).unwrap_or(0.0),
        events as f64 / run_s,
        stats.commits,
        vmhwm_kb().map_or("n/a".to_string(), |kb| kb.to_string()),
    );
}

/// The cell of `benchmark/src/engine.rs::build` at seed offset 0, with
/// the database size and access skew optionally replaced; also returns
/// the database size it used.
fn build(cc: CcKind, low: bool, db_size: Option<u64>, skew: Option<f64>) -> (Simulator, u64) {
    let seed = SystemConfig::default().seed;
    let (mut sys, mut workload, control, is) = if low {
        (
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
        )
    } else {
        (
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
        )
    };
    if let Some(d) = db_size {
        sys.db_size = d;
    }
    if let Some(s) = skew {
        workload.access_skew = Schedule::Constant(s);
    }
    let db_size = sys.db_size;
    let mut sim = Simulator::new(
        sys,
        workload,
        cc,
        control,
        Some(Box::new(IncrementalSteps::new(is))),
    );
    sim.set_record_optimum(false);
    (sim, db_size)
}

/// This process's peak resident set, KB, from `/proc/self/status`.
fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
