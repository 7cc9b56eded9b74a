//! The striped shell against its two oracles.
//!
//! [`ControlLoop`] records what its callers report in per-thread stripes
//! and replays the stripes into its [`LoopCore`] in batches. Two things
//! must survive that: nothing is lost, duplicated or miscounted however
//! drains, ticks and callers interleave (the multi-threaded test), and a
//! single caller's stream reaches the core exactly as issued, so that
//! the shell decides precisely what a bare core would (the scripted
//! test). A third test hands a baton between two callers to pin the
//! order in which a drain merges their stripes, and a fourth holds the
//! trace to the same facts the metrics and the gate log count.

use std::sync::{Arc, Barrier, Mutex};

use alc_core::controller::{IncrementalSteps, IsParams};
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::measure::PerfIndicator;
use alc_runtime::{
    check_conformance, read_gate_log, write_gate_log, AdmissionPolicy, AimdLaw, AimdParams,
    ControlLaw, ControlLoop, GateLogHeader, LoopCore, Outcome, PaperLaw, RetryBudgetLaw,
    RetryBudgetParams,
};
use alc_trace::name::{ATTEMPT, BOUND, CLIENT_SHED, GATE_DECISION, MPL};
use alc_trace::{Args, CountingSink, Phase, TraceEvent, TraceSink};

/// A sink whose buffer outlives the boxed recorder the loop owns.
struct SharedSink(Arc<Mutex<Vec<GateEvent>>>);

impl GateLogSink for SharedSink {
    fn record(&mut self, event: &GateEvent) {
        self.0.lock().expect("sink buffer").push(*event);
    }
}

fn capture(rt: &ControlLoop) -> Arc<Mutex<Vec<GateEvent>>> {
    let buffer = Arc::new(Mutex::new(Vec::new()));
    rt.set_gate_log(Box::new(SharedSink(Arc::clone(&buffer))));
    buffer
}

const THREADS: u64 = 4;
const OPS: u64 = 10_000;
const ABORT_EVERY: u64 = 7;
const TICK_EVERY: u64 = 512;
const METRICS_EVERY: u64 = 700;

type MakeLaw = fn() -> Box<dyn ControlLaw>;

/// Every law keeps its bound above `THREADS`, so no caller ever queues.
fn laws() -> [(&'static str, MakeLaw); 3] {
    [
        ("paper(IS)", || {
            Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(IsParams {
                initial_bound: 16,
                min_bound: 8,
                max_bound: 64,
                ..IsParams::default()
            }))))
        }),
        ("aimd", || {
            Box::new(AimdLaw::new(AimdParams {
                initial_bound: 16,
                min_bound: 8,
                max_bound: 64,
                ..AimdParams::default()
            }))
        }),
        ("retry-budget", || {
            Box::new(RetryBudgetLaw::new(RetryBudgetParams {
                initial_bound: 16,
                min_bound: 8,
                max_bound: 64,
                ..RetryBudgetParams::default()
            }))
        }),
    ]
}

/// `THREADS` callers × `OPS` admit/complete pairs with a gate log
/// installed; thread 0 ticks and thread 1 reads `metrics()` on their own
/// cadences, so stripe-full drains, tick drains and metrics drains all
/// interleave. At quiescence the loop's totals, the log's contents and a
/// replay of the log must all agree with what was issued.
#[test]
fn live_capture_is_complete_and_replays_identically() {
    for (name, law) in laws() {
        let rt = ControlLoop::new(law(), PerfIndicator::Throughput, AdmissionPolicy::Queue);
        let log = capture(&rt);
        let start = Barrier::new(THREADS as usize);
        let ticks: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let (rt, start) = (&rt, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut ticks = 0;
                        for i in 0..OPS {
                            let permit = rt.admit().expect("Queue policy never sheds");
                            let outcome = if i % ABORT_EVERY == tid {
                                Outcome::Abort { conflicts: 1 + tid }
                            } else {
                                // Unique per op: the log must hold each once.
                                Outcome::Commit {
                                    response_ms: (tid * OPS + i) as f64 + 0.5,
                                    conflicts: i % 3,
                                }
                            };
                            rt.complete(permit, outcome);
                            if tid == 0 && i % TICK_EVERY == TICK_EVERY - 1 {
                                rt.tick();
                                ticks += 1;
                            }
                            if tid == 1 && i % METRICS_EVERY == 0 {
                                assert!(rt.metrics().in_use <= THREADS as u32);
                            }
                        }
                        ticks
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller panicked"))
                .sum()
        });

        let aborts = THREADS * OPS.div_ceil(ABORT_EVERY);
        let commits = THREADS * OPS - aborts;
        let m = rt.metrics();
        assert_eq!(
            (m.commits, m.aborts, m.sheds, m.decisions, m.in_use),
            (commits, aborts, 0, ticks, 0),
            "{name}: totals at quiescence"
        );

        drop(rt.take_gate_log());
        let events = log.lock().expect("sink buffer").clone();
        let count = |pred: fn(&GateEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
        assert_eq!(
            count(|e| matches!(e, GateEvent::Mpl { .. })),
            2 * THREADS * OPS,
            "{name}: one population change per admission and per departure"
        );
        assert_eq!(
            count(|e| matches!(e, GateEvent::Abort { .. })),
            aborts,
            "{name}"
        );
        assert_eq!(
            count(|e| matches!(e, GateEvent::Decision { .. })),
            ticks,
            "{name}"
        );
        let mut responses: Vec<f64> = events
            .iter()
            .filter_map(|e| match *e {
                GateEvent::Commit { response_ms, .. } => Some(response_ms),
                _ => None,
            })
            .collect();
        responses.sort_by(f64::total_cmp);
        let issued: Vec<f64> = (0..THREADS * OPS)
            .filter(|k| (k % OPS) % ABORT_EVERY != k / OPS)
            .map(|k| k as f64 + 0.5)
            .collect();
        assert_eq!(
            responses, issued,
            "{name}: every commit logged exactly once"
        );
        assert!(
            events.iter().all(|e| match *e {
                GateEvent::Mpl { in_system, .. } => in_system <= THREADS as u32,
                _ => true,
            }),
            "{name}: a logged population no set of {THREADS} callers can produce"
        );

        let c = check_conformance(&events, law(), PerfIndicator::Throughput);
        assert!(
            c.is_identical(),
            "{name}: replay diverged at decision {:?}",
            c.first_divergence
        );
        assert_eq!(c.recorded.len() as u64, ticks, "{name}");
    }
}

/// A counting trace whose tallies outlive the boxed sink the loop owns,
/// plus the aborted `attempt` spans (`CountingSink` keys outcomes of
/// span ends only).
#[derive(Default)]
struct TraceTally {
    counts: CountingSink,
    aborted: u64,
}

struct SharedTrace(Arc<Mutex<TraceTally>>);

impl TraceSink for SharedTrace {
    fn emit(&mut self, event: &TraceEvent) {
        let mut tally = self.0.lock().expect("trace tally");
        tally.counts.emit(event);
        tally.aborted += u64::from(matches!(event.args, Args::Outcome("abort")));
    }
}

/// `THREADS` callers under `Shed`, each arriving three times a round
/// against a bound of at most two, so at least one arrival a round is
/// refused, with thread 0 ticking: every fact the
/// loop counts is traced exactly once. Attempt spans by outcome are the
/// commits and aborts, `client.shed` instants the sheds, `gate.decision`
/// instants and `bound` counters the decisions, and `mpl` counters the
/// gate log's `Mpl` lines.
#[test]
fn the_trace_reconciles_with_the_metrics_and_the_gate_log() {
    const ROUNDS: u64 = 2_000;
    let rt = ControlLoop::new(
        Box::new(AimdLaw::new(AimdParams {
            initial_bound: 2,
            min_bound: 1,
            max_bound: 2,
            ..AimdParams::default()
        })),
        PerfIndicator::Throughput,
        AdmissionPolicy::Shed,
    );
    let log = capture(&rt);
    let tally = Arc::new(Mutex::new(TraceTally::default()));
    rt.set_trace_sink(Box::new(SharedTrace(Arc::clone(&tally))));
    let start = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (rt, start) = (&rt, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..ROUNDS {
                    let arrivals = [rt.admit(), rt.admit(), rt.admit()];
                    for (k, permit) in arrivals.into_iter().flatten().enumerate() {
                        let outcome = if (i + k as u64) % ABORT_EVERY == tid {
                            Outcome::Abort { conflicts: 1 }
                        } else {
                            Outcome::Commit {
                                response_ms: 1.0,
                                conflicts: 0,
                            }
                        };
                        rt.complete(permit, outcome);
                    }
                    if tid == 0 && i % 64 == 63 {
                        rt.tick();
                    }
                }
            });
        }
    });
    let m = rt.metrics();
    drop(rt.take_trace_sink());
    drop(rt.take_gate_log());
    assert!(m.commits > 0 && m.aborts > 0 && m.sheds > 0 && m.decisions > 0);
    assert_eq!(m.commits + m.aborts + m.sheds, 3 * THREADS * ROUNDS);

    let tally = tally.lock().expect("trace tally");
    let count = |ph, name| tally.counts.count(ph, name).total;
    let attempts = count(Phase::Complete, ATTEMPT);
    assert_eq!(
        (attempts - tally.aborted, tally.aborted),
        (m.commits, m.aborts),
        "attempt spans by outcome"
    );
    assert_eq!(count(Phase::Mark, CLIENT_SHED), m.sheds);
    assert_eq!(count(Phase::Mark, GATE_DECISION), m.decisions);
    assert_eq!(count(Phase::Counter, BOUND), m.decisions);
    let events = log.lock().expect("sink buffer");
    let mpl_lines = events
        .iter()
        .filter(|e| matches!(e, GateEvent::Mpl { .. }))
        .count() as u64;
    assert_eq!(mpl_lines, 2 * (m.commits + m.aborts));
    assert_eq!(count(Phase::Counter, MPL), mpl_lines);
}

/// One caller, one scripted op sequence (admissions, sheds at a full
/// gate, completions in shuffled order, ticks at uneven distances —
/// some windows cross several stripe-full drains, some hold nothing).
/// The shell's log must be the script, event for event, and a bare
/// [`LoopCore`] fed the script directly must close every window on the
/// same [`Decision`](alc_runtime::Decision) the shell returned. Only the
/// timestamps are taken from the shell: the script cannot know them.
#[test]
fn scripted_sequence_matches_a_bare_core() {
    let law = || {
        Box::new(AimdLaw::new(AimdParams {
            initial_bound: 3,
            min_bound: 2,
            max_bound: 6,
            ..AimdParams::default()
        }))
    };
    let rt = ControlLoop::new(law(), PerfIndicator::Throughput, AdmissionPolicy::Shed);
    let log = capture(&rt);

    /// What the script expects the core to have been fed.
    enum Fed {
        Mpl(u32),
        Commit(f64, u64),
        Abort(u64),
        /// A tick, with the sheds of the window it closes.
        Harvest(u64, alc_runtime::Decision),
    }
    let mut script = Vec::new();
    let mut held = Vec::new();
    let mut sheds = 0;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for step in 0..6000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 8 {
            0..=3 => {
                let limit = rt.gate().limit() as usize;
                match rt.admit() {
                    Some(permit) => {
                        assert!(held.len() < limit, "admitted at a full gate");
                        held.push(permit);
                        script.push(Fed::Mpl(held.len() as u32));
                    }
                    None => {
                        assert!(held.len() >= limit, "shed below the bound");
                        sheds += 1;
                    }
                }
            }
            4..=6 => {
                if !held.is_empty() {
                    let permit = held.swap_remove((x >> 8) as usize % held.len());
                    if (x >> 16).is_multiple_of(5) {
                        rt.complete(permit, Outcome::Abort { conflicts: x >> 60 });
                        script.push(Fed::Abort(x >> 60));
                    } else {
                        let response_ms = 1.0 + ((x >> 20) % 400) as f64 / 8.0;
                        rt.complete(
                            permit,
                            Outcome::Commit {
                                response_ms,
                                conflicts: x >> 62,
                            },
                        );
                        script.push(Fed::Commit(response_ms, x >> 62));
                    }
                    script.push(Fed::Mpl(held.len() as u32));
                }
            }
            // Ticks come rarely at first (long windows), then often.
            _ => {
                if step > 3000 || x >> 40 & 31 == 0 {
                    script.push(Fed::Harvest(std::mem::take(&mut sheds), rt.tick()));
                }
            }
        }
    }
    // A permit dropped without an outcome still reports its release.
    while let Some(permit) = held.pop() {
        drop(permit);
        script.push(Fed::Mpl(held.len() as u32));
    }
    drop(rt.take_gate_log());
    let logged = log.lock().expect("sink buffer").clone();
    assert_eq!(logged.len(), script.len(), "the log holds the script");
    assert!(
        script
            .iter()
            .filter(|f| matches!(f, Fed::Harvest(..)))
            .count()
            > 20
    );

    let mut bare = LoopCore::new(law(), PerfIndicator::Throughput);
    let mut longest_window = 0;
    let mut window = 0;
    for (fed, logged) in script.iter().zip(&logged) {
        let at_ms = logged.at_ms();
        window += 1;
        match *fed {
            Fed::Mpl(in_system) => {
                assert_eq!(*logged, GateEvent::Mpl { at_ms, in_system });
                bare.on_mpl(at_ms, in_system);
            }
            Fed::Commit(response_ms, conflicts) => {
                assert_eq!(
                    *logged,
                    GateEvent::Commit {
                        at_ms,
                        response_ms,
                        conflicts
                    }
                );
                bare.on_commit(at_ms, response_ms, conflicts);
            }
            Fed::Abort(conflicts) => {
                assert_eq!(*logged, GateEvent::Abort { at_ms, conflicts });
                bare.on_abort(at_ms, conflicts);
            }
            Fed::Harvest(sheds, ref decision) => {
                for _ in 0..sheds {
                    bare.on_shed();
                }
                assert_eq!(at_ms, decision.at_ms);
                assert_eq!(bare.harvest(at_ms, 0), *decision);
                longest_window = longest_window.max(std::mem::take(&mut window));
            }
        }
    }
    assert!(
        longest_window > 400,
        "no window crossed several stripe-full drains ({longest_window} events)"
    );
    // Sheds after the last tick sit in a window nobody has closed yet.
    for _ in 0..sheds {
        bare.on_shed();
    }
    assert_eq!(bare.totals(), {
        let m = rt.metrics();
        (m.commits, m.aborts, m.sheds, m.decisions)
    });
}

/// Two callers take strict turns (a channel hands the baton over), so
/// the order of their operations — and of their timestamps — is known,
/// while each records into its own stripe. Fewer events than a stripe
/// holds, so the one drain is the tick's: it must merge the two stripes
/// back into the order the operations happened in.
#[test]
fn a_drain_merges_stripes_in_timestamp_order() {
    use std::sync::mpsc;

    const ROUNDS: u32 = 9; // 3 events per caller and round: 27 < a stripe

    let rt = ControlLoop::new(
        Box::new(AimdLaw::new(AimdParams::default())),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    );
    let log = capture(&rt);
    let (to_other, baton) = mpsc::channel::<()>();
    let (back, returned) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let rt = &rt;
        s.spawn(move || {
            // Each baton: first admit, later complete the held permit.
            let mut held = None;
            for () in baton {
                match held.take() {
                    None => held = rt.admit(),
                    Some(permit) => rt.complete(permit, Outcome::Abort { conflicts: 2 }),
                }
                back.send(()).expect("main is waiting");
            }
        });
        let pass = || {
            to_other.send(()).expect("other caller is waiting");
            returned.recv().expect("other caller answers");
        };
        for round in 0..ROUNDS {
            let permit = rt.admit().expect("Queue policy never sheds");
            pass(); // the other caller admits: population 2
            rt.complete(
                permit,
                Outcome::Commit {
                    response_ms: f64::from(round),
                    conflicts: 0,
                },
            );
            pass(); // the other caller aborts: population 0
        }
        drop(to_other);
    });
    rt.tick();
    drop(rt.take_gate_log());

    let logged = log.lock().expect("sink buffer").clone();
    let kinds: Vec<(char, u32)> = logged
        .iter()
        .map(|e| match *e {
            GateEvent::Mpl { in_system, .. } => ('m', in_system),
            GateEvent::Commit { response_ms, .. } => ('c', response_ms as u32),
            GateEvent::Abort { conflicts, .. } => ('a', conflicts as u32),
            GateEvent::Decision { .. } => ('d', 0),
        })
        .collect();
    let mut expected = Vec::new();
    for round in 0..ROUNDS {
        expected.extend([
            ('m', 1),
            ('m', 2),
            ('c', round),
            ('m', 1),
            ('a', 2),
            ('m', 0),
        ]);
    }
    expected.push(('d', 0));
    assert_eq!(kinds, expected);
    assert!(logged.windows(2).all(|w| w[0].at_ms() <= w[1].at_ms()));
}

/// A latency that is not a finite, non-negative number (NaN, −5, +∞)
/// among 20 commits is recorded clamped into `[0, f64::MAX]`, NaN as 0:
/// the window's mean and quantiles stay finite and non-negative, and
/// the gate log written across them reads back and replays.
#[test]
fn unusable_latencies_are_clamped_before_they_are_recorded() {
    let law = || Box::new(AimdLaw::new(AimdParams::default())) as Box<dyn ControlLaw>;
    let rt = ControlLoop::new(law(), PerfIndicator::Throughput, AdmissionPolicy::Queue);
    let log = capture(&rt);
    let bad = [
        (3, f64::NAN, 0.0),
        (9, -5.0, 0.0),
        (15, f64::INFINITY, f64::MAX),
    ];
    for i in 0..20 {
        let permit = rt.admit().expect("Queue policy never sheds");
        let response_ms = bad
            .iter()
            .find(|b| b.0 == i)
            .map_or(10.0 + f64::from(i), |b| b.1);
        rt.complete(
            permit,
            Outcome::Commit {
                response_ms,
                conflicts: 0,
            },
        );
    }
    let w = rt.tick().window;
    for (what, x) in [
        ("mean", w.measurement.mean_response_ms),
        ("p50", w.p50_ms),
        ("p95", w.p95_ms),
        ("p99", w.p99_ms),
    ] {
        assert!(x.is_finite() && x >= 0.0, "window {what} {x}");
    }

    drop(rt.take_gate_log());
    let events = log.lock().expect("sink buffer").clone();
    let recorded: Vec<f64> = events
        .iter()
        .filter_map(|e| match *e {
            GateEvent::Commit { response_ms, .. } => Some(response_ms),
            _ => None,
        })
        .collect();
    for &(i, _, want) in &bad {
        assert_eq!(recorded[i as usize], want, "commit {i}");
    }
    let mut file = Vec::new();
    let header = GateLogHeader {
        scenario: String::new(),
        variant: String::new(),
        replication: 0,
        seed: 0,
        quick: false,
    };
    write_gate_log(&mut file, &header, &events).expect("write to memory");
    let (_, read) = read_gate_log(file.as_slice()).expect("the log reads back");
    assert_eq!(read, events);
    let c = check_conformance(&read, law(), PerfIndicator::Throughput);
    assert!(
        c.is_identical(),
        "replay diverged at {:?}",
        c.first_divergence
    );
}
