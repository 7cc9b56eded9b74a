//! The calendar's FIFO lanes against its rung, with no knob to turn.
//!
//! The engine sends a delay down a lane when the spec makes it a
//! `Dist::Constant` and through the rung otherwise, and nothing else
//! selects the path. `Dist::Uniform { lo: d, hi: d }` returns exactly `d`
//! (`d + 0·u`) and takes its draws from the `disk` / `restart` streams,
//! which nothing else reads: the same model, every event through the
//! rung. So the two spellings must produce the same run, event for event.
//!
//! The second test pins the traffic the lanes were sized on.

use std::sync::{Arc, Mutex};

use alc_core::controller::{IncrementalSteps, IsParams, LoadController};
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_des::dist::{Dist, Uniform};
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::workload::WorkloadConfig;
use alc_tpsim::{ClientConfig, ClientStats, RetryPolicy, RunStats, Simulator};
use alc_trace::{name as tname, CountingSink, Phase, TraceEvent, TraceSink};

struct SharedLog(Arc<Mutex<Vec<GateEvent>>>);

impl GateLogSink for SharedLog {
    fn record(&mut self, event: &GateEvent) {
        self.0.lock().expect("no sink panics").push(*event);
    }
}

struct SharedTrace(Arc<Mutex<CountingSink>>);

impl TraceSink for SharedTrace {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.lock().expect("no sink panics").emit(ev);
    }
}

/// What a shared sink collected, once the simulator has dropped its handle.
fn unshare<T>(shared: Arc<Mutex<T>>) -> T {
    let Ok(sink) = Arc::try_unwrap(shared) else {
        panic!("the simulator still holds the sink");
    };
    sink.into_inner().expect("no sink panics")
}

/// What a run leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: RunStats,
    events: u64,
    clients: Option<ClientStats>,
    switches: u64,
    trajectories: String,
    gate_log: Vec<GateEvent>,
    tallies: String,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    cc: CcKind,
    displacement: bool,
    /// One scheduled CC switch and one CPU kill/restore pair.
    disturbed: bool,
    clients: Option<RetryPolicy>,
    /// CPU bursts and think times are constants too (they stay on the
    /// rung), in step with the disk: where the exponential model has no
    /// two events at one instant, this one has little else, and each tie
    /// between a lane and the rung must break by `seq`.
    lockstep: bool,
}

fn run(case: Case, lanes: bool) -> (Outcome, CountingSink) {
    let fixed = |d: f64| match lanes {
        true => Dist::constant(d),
        false => Dist::Uniform(Uniform { lo: d, hi: d }),
    };
    let sys = SystemConfig {
        terminals: 40,
        cpus: 4,
        db_size: 300,
        cpu_phase: match case.lockstep {
            true => Dist::constant(2.0),
            false => Dist::exponential(1.5),
        },
        think: match case.lockstep {
            true => Dist::constant(150.0),
            false => Dist::exponential(150.0),
        },
        disk_access: fixed(2.0),
        disk_init_commit: fixed(20.0),
        restart_delay: fixed(5.0),
        seed: 0xA1C_0018,
        ..SystemConfig::default()
    };
    let controller = case.displacement.then(|| {
        Box::new(IncrementalSteps::new(IsParams {
            initial_bound: 12,
            max_bound: 40,
            ..IsParams::default()
        })) as Box<dyn LoadController>
    });
    let control = ControlConfig {
        initial_bound: 30,
        sample_interval_ms: 500.0,
        warmup_ms: 2_000.0,
        displacement: case.displacement,
        ..ControlConfig::default()
    };
    let mut sim = Simulator::new(sys, WorkloadConfig::default(), case.cc, control, controller);
    sim.set_record_optimum(false);
    if case.disturbed {
        let other = CcKind::ALL[(case.cc as usize + 2) % CcKind::ALL.len()];
        sim.set_cc_switches(&[(9_000.0, other)]);
        sim.set_faults(&[(5_000.0, -3), (6_500.0, 3)]);
    }
    if let Some(retry) = case.clients {
        sim.set_clients(ClientConfig {
            retry,
            ..ClientConfig::new(40, Dist::exponential(250.0))
        });
    }
    let gate_log = Arc::new(Mutex::new(Vec::new()));
    let trace = Arc::new(Mutex::new(CountingSink::new()));
    sim.set_gate_log(Box::new(SharedLog(Arc::clone(&gate_log))));
    sim.set_trace_sink(Box::new(SharedTrace(Arc::clone(&trace))));
    let stats = sim.run(16_000.0);
    drop(sim.take_trace_sink());
    drop(sim.take_gate_log());
    let trace = unshare(trace);
    let outcome = Outcome {
        stats,
        events: sim.events_processed(),
        clients: sim.client_stats(),
        switches: sim.cc_switches_completed(),
        trajectories: format!("{:?}", sim.trajectories()),
        gate_log: unshare(gate_log),
        tallies: format!("{trace:?}"),
    };
    (outcome, trace)
}

#[test]
fn constants_on_lanes_equal_degenerate_uniforms_on_the_rung() {
    let mut cases = Vec::new();
    for cc in CcKind::ALL {
        for displacement in [false, true] {
            cases.push(Case {
                cc,
                displacement,
                disturbed: false,
                clients: None,
                lockstep: false,
            });
        }
    }
    let fixed_delay = RetryPolicy {
        base_ms: 30.0,
        factor: 1.0,
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    for (cc, clients, lockstep) in [
        (CcKind::Certification, None, false),
        (CcKind::TwoPhaseLocking, Some(RetryPolicy::default()), false),
        (CcKind::Multiversion, Some(fixed_delay), false),
        (CcKind::WoundWait, Some(fixed_delay), false),
        (CcKind::Certification, None, true),
        (CcKind::WaitDie, Some(RetryPolicy::default()), true),
    ] {
        cases.push(Case {
            cc,
            displacement: true,
            disturbed: true,
            clients,
            lockstep,
        });
    }
    let (mut aborts, mut displaced) = (0, 0);
    for case in cases {
        let (on_lanes, trace) = run(case, true);
        let (on_rung, _) = run(case, false);
        assert!(
            on_lanes.stats.commits > 200,
            "{case:?}: a run too quiet to compare"
        );
        assert!(on_lanes.events > 20_000, "{case:?}");
        assert_eq!(trace.first_unbalanced(), None, "{case:?}");
        assert_eq!(on_lanes.switches, u64::from(case.disturbed), "{case:?}");
        // Field by field first, so a difference names itself.
        assert_eq!(on_lanes.events, on_rung.events, "{case:?}");
        assert_eq!(on_lanes.stats, on_rung.stats, "{case:?}");
        assert_eq!(on_lanes.gate_log.len(), on_rung.gate_log.len(), "{case:?}");
        assert_eq!(on_lanes, on_rung, "{case:?}");
        aborts += on_lanes.stats.aborts;
        displaced += on_lanes.stats.displaced;
    }
    // The restart lane and the stale events an abort leaves behind took
    // part, and so did displacement.
    assert!(
        aborts > 1_000 && displaced > 0,
        "{aborts} aborts, {displaced} displaced"
    );
}

/// The share of events that ride a lane, measured and not guessed: on the
/// paper's default model every disk operation does, and those are about
/// half of everything the calendar pops (`k = 8`: ten CPU bursts, ten
/// disk operations and one submission per committed transaction). The
/// lanes' gain was sized on this share; a model change that moves it
/// should fail here instead of silently stranding the optimisation.
#[test]
fn disk_events_are_about_half_of_all_events() {
    let sys = SystemConfig {
        terminals: 100,
        ..SystemConfig::default()
    };
    let control = ControlConfig {
        warmup_ms: 0.0,
        ..ControlConfig::default()
    };
    let mut sim = Simulator::new(
        sys,
        WorkloadConfig::default(),
        CcKind::Certification,
        control,
        None,
    );
    sim.set_record_optimum(false);
    let trace = Arc::new(Mutex::new(CountingSink::new()));
    sim.set_trace_sink(Box::new(SharedTrace(Arc::clone(&trace))));
    let stats = sim.run(60_000.0);
    drop(sim.take_trace_sink());
    let disk = unshare(trace).count(Phase::Complete, tname::DISK).total;
    let share = disk as f64 / sim.events_processed() as f64;
    assert!(stats.commits > 1_000, "{} commits", stats.commits);
    assert!(
        (0.45..=0.52).contains(&share),
        "{disk} disk operations among {} events: share {share:.3}",
        sim.events_processed()
    );
}
