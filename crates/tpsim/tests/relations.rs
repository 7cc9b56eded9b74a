//! Exact relations between runs that must agree to the last bit: a
//! read-only workload leaves the concurrency-control protocol nothing to
//! decide, and a gate bound no smaller than the terminal population never
//! makes a transaction wait.

use alc_analytic::surface::Schedule;
use alc_des::dist::Dist;
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::{RunStats, Simulator};
use alc_tpsim::workload::WorkloadConfig;

const TERMINALS: u32 = 40;

/// A small, contended system: few items, many accesses per transaction.
fn sys(seed: u64) -> SystemConfig {
    SystemConfig {
        terminals: TERMINALS,
        cpus: 4,
        db_size: 200,
        cpu_phase: Dist::exponential(4.0),
        disk_access: Dist::constant(3.0),
        disk_init_commit: Dist::constant(40.0),
        think: Dist::exponential(200.0),
        restart_delay: Dist::constant(2.0),
        seed,
        ..SystemConfig::default()
    }
}

/// One run at a static bound, no controller: its statistics and the
/// number of events it processed.
fn run(cc: CcKind, workload: &WorkloadConfig, bound: u32, seed: u64) -> (RunStats, u64) {
    let control = ControlConfig {
        sample_interval_ms: 500.0,
        initial_bound: bound,
        warmup_ms: 2_000.0,
        ..ControlConfig::default()
    };
    let mut sim = Simulator::new(sys(seed), workload.clone(), cc, control, None);
    sim.set_record_optimum(false);
    let stats = sim.run(20_000.0);
    (stats, sim.events_processed())
}

/// With only queries, no protocol ever sees a conflict: all six produce
/// one run, without an abort or a conflict.
#[test]
fn read_only_runs_are_identical_under_every_protocol() {
    let workload = WorkloadConfig {
        k: Schedule::Constant(8.0),
        query_frac: Schedule::Constant(1.0),
        ..WorkloadConfig::default()
    };
    for seed in [3, 11] {
        let (first, _) = run(CcKind::ALL[0], &workload, u32::MAX, seed);
        assert!(first.commits > 100, "seed {seed}: only {} commits", first.commits);
        assert_eq!(first.aborts, 0, "seed {seed}");
        assert_eq!(first.conflicts_per_commit, 0.0, "seed {seed}");
        for cc in &CcKind::ALL[1..] {
            let (stats, _) = run(*cc, &workload, u32::MAX, seed);
            assert_eq!(stats, first, "seed {seed}: {cc:?} differs from {:?}", CcKind::ALL[0]);
        }
    }
}

/// A bound the population cannot reach admits exactly as no bound does:
/// the same events, and the same statistics but the bound's own average.
#[test]
fn a_bound_at_or_above_the_population_is_no_bound() {
    let workload = WorkloadConfig {
        write_frac: Schedule::Constant(0.5),
        ..WorkloadConfig::default()
    };
    for cc in CcKind::ALL {
        let (open, open_events) = run(cc, &workload, u32::MAX, 5);
        assert!(open.aborts > 0, "{cc:?}: no contention to speak of");
        for bound in [TERMINALS, 2 * TERMINALS] {
            let (bounded, events) = run(cc, &workload, bound, 5);
            assert_eq!(events, open_events, "{cc:?} at bound {bound}: event count");
            assert_eq!(bounded.mean_bound, f64::from(bound), "{cc:?}");
            assert_eq!(
                RunStats {
                    mean_bound: open.mean_bound,
                    ..bounded
                },
                open,
                "{cc:?} at bound {bound}"
            );
        }
    }
}
