//! Per-layer kernels: fixed-count drives of one public function each,
//! timed from outside, best of [`REPS`] repetitions after one warm-up.
//! They attribute cost to a layer; no end-to-end claim rests on them.

use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alc_core::controller::{
    Hybrid, HybridParams, IncrementalSteps, IsParams, LoadController, OuterParams, PaOuterParams,
    PaParams, ParabolaApproximation, RetryBudget, RetryBudgetParams, SelfTuningIs, SelfTuningPa,
};
use alc_core::estimator::Rls;
use alc_core::gate::AdaptiveGate;
use alc_core::gatelog::GateEvent;
use alc_core::measure::{Measurement, PerfIndicator};
use alc_core::sampler::IntervalSampler;
use alc_des::dist::{Dist, Sample as _, Zipf};
use alc_des::rng::RngStream;
use alc_des::Calendar;
use alc_runtime::{
    event_line, AdmissionPolicy, AimdLaw, AimdParams, ControlLaw, ControlLoop, JsonlSink, LoopCore,
    Outcome, PaperLaw, RetryBudgetLaw, TelemetryWindow, WindowSnapshot,
};
use alc_tpsim::cc::{
    make_cc, AccessOutcome, ConcurrencyControl, Mvto, Prevention, PreventionPolicy, TwoPhaseLocking,
};
use alc_tpsim::config::CcKind;
use alc_tpsim::gate::SimGate;
use alc_trace::{cat, name, ChromeWriter, CountingSink, TraceEvent, TraceSink};

use crate::engine::{self, Regime};

/// Timed repetitions per kernel; the fastest is reported, as the one
/// least disturbed by the host.
const REPS: usize = 3;

/// `(metric name, value)` pairs, in ledger order.
pub type Metrics = Vec<(String, f64)>;

/// Nanoseconds per op of `f`, which performs `ops` ops per call.
fn ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn des(out: &mut Metrics) {
    // perfgate's simulator-shaped stream: a standing population of 256
    // events, a successor scheduled per pop, every third pop cancelling
    // and replacing an earlier token. One op = one pop.
    const STANDING: usize = 256;
    const POPS: usize = 400_000;
    out.push((
        "des.calendar.op_ns".into(),
        ns_per_op(POPS as u64, || {
            let mut rng = RngStream::from_seed(0xBEEF);
            let mut cal: Calendar<(u32, u64)> = Calendar::new();
            let mut tokens: Vec<_> = (0..STANDING)
                .map(|i| cal.schedule_in(rng.uniform(1.0, 100.0), (i as u32, 0)))
                .collect();
            for i in 0..POPS {
                black_box(cal.pop().expect("standing population"));
                let slot = i % STANDING;
                let tok = cal.schedule_in(rng.uniform(1.0, 100.0), (slot as u32, i as u64));
                if i % 3 == 0 {
                    cal.cancel(tokens[slot]);
                    tokens[slot] =
                        cal.schedule_in(rng.uniform(1.0, 100.0), (slot as u32, i as u64));
                } else {
                    tokens[slot] = tok;
                }
            }
        }),
    ));

    const DRAWS: u64 = 2_000_000;
    for (metric, dist) in [
        ("des.dist.exp_zig_ns", Dist::exponential(4.0)),
        ("des.dist.exp_inverse_ns", Dist::exponential_inverse(4.0)),
    ] {
        let mut rng = RngStream::from_seed(1);
        out.push((
            metric.into(),
            ns_per_op(DRAWS, || {
                for _ in 0..DRAWS {
                    black_box(dist.sample(&mut rng));
                }
            }),
        ));
    }
    let zipf = Zipf::new(2000, 0.8);
    let mut rng = RngStream::from_seed(1);
    out.push((
        "des.dist.zipf_ns".into(),
        ns_per_op(DRAWS, || {
            for _ in 0..DRAWS {
                black_box(zipf.sample(&mut rng));
            }
        }),
    ));
    let mut set = Vec::with_capacity(8);
    out.push((
        "des.rng.distinct_below_ns".into(),
        ns_per_op(DRAWS / 4, || {
            for _ in 0..DRAWS / 4 {
                rng.distinct_below_into(2000, 8, &mut set);
                black_box(&set);
            }
        }),
    ));
}

fn cc(out: &mut Metrics) {
    // One conflict-free transaction: begin, 8 accesses (every fourth a
    // write), validate, commit — through the same boxed trait object and
    // allocation-free commit the engine uses.
    const CYCLES: u64 = 200_000;
    for kind in CcKind::ALL {
        let mut cc = make_cc(kind, 4, 1000);
        let mut unblocked = Vec::with_capacity(4);
        let mut ts = 0u64;
        out.push((
            format!("tpsim.cc.{}.cycle_ns", kind.name()),
            ns_per_op(CYCLES, || {
                for _ in 0..CYCLES {
                    ts += 1;
                    cc.begin(0, ts);
                    for i in 0..8u64 {
                        let got = cc.access(0, (ts * 13 + i) % 1000, i % 4 == 0);
                        debug_assert_eq!(got, AccessOutcome::Granted);
                        black_box(got);
                    }
                    black_box(cc.validate(0));
                    unblocked.clear();
                    cc.commit_into(0, &mut unblocked);
                }
            }),
        ));
    }

    const CHECKS: u64 = 200_000;
    // A 16-deep waits-for chain without a cycle: the worst-case search
    // that finds nothing.
    let mut twopl = TwoPhaseLocking::new(17);
    for i in 0..17usize {
        twopl.begin(i, i as u64 + 1);
        assert_eq!(twopl.access(i, i as u64, true), AccessOutcome::Granted);
    }
    for i in 1..17usize {
        assert_eq!(
            twopl.access(i, (i - 1) as u64, true),
            AccessOutcome::Blocked
        );
    }
    out.push((
        "tpsim.cc.2pl.deadlock_check_ns".into(),
        ns_per_op(CHECKS, || {
            for _ in 0..CHECKS {
                black_box(twopl.deadlock_victim(16));
            }
        }),
    ));

    // 16 shared holders and one older exclusive requester: the wound
    // rule scans every blocker per call.
    let mut ww = Prevention::new(PreventionPolicy::WoundWait, 18);
    for i in 0..16usize {
        ww.begin(i, 100 + i as u64);
        assert_eq!(ww.access(i, 7, false), AccessOutcome::Granted);
    }
    ww.begin(16, 1);
    assert_eq!(ww.access(16, 7, true), AccessOutcome::Blocked);
    out.push((
        "tpsim.cc.wound-wait.victim_scan_ns".into(),
        ns_per_op(CHECKS, || {
            for _ in 0..CHECKS {
                black_box(ww.deadlock_victim(16));
            }
        }),
    ));

    // An old reader: its snapshot is the far end of a 64-version chain
    // that is searched from the youngest version down.
    let mut mv = Mvto::with_max_versions(2, 64);
    for ts in 1..=64u64 {
        mv.begin(0, ts);
        mv.access(0, 7, true);
        assert!(mv.validate(0).ok);
        mv.commit(0);
    }
    out.push((
        "tpsim.cc.multiversion.deep_read_ns".into(),
        ns_per_op(CHECKS, || {
            for _ in 0..CHECKS {
                mv.begin(1, 1);
                let got = mv.access(1, 7, false);
                debug_assert_eq!(got, AccessOutcome::Granted);
                black_box(got);
                mv.abort(1);
            }
        }),
    ));

    const PASSES: u64 = 2_000_000;
    let mut gate = SimGate::new(64);
    let mut admitted = Vec::with_capacity(4);
    out.push((
        "tpsim.gate.arrive_depart_ns".into(),
        ns_per_op(PASSES, || {
            for i in 0..PASSES {
                black_box(gate.arrive(i as usize & 63));
                admitted.clear();
                gate.depart_into(&mut admitted);
            }
        }),
    ));
}

/// A writer that only counts, for bytes-per-event figures.
#[derive(Default)]
struct ByteCount(u64);

impl Write for ByteCount {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Simulated horizon of the observer-cost cell: ≈0.3 M events.
const OBSERVED_HORIZON_MS: f64 = 50_000.0;

/// Host ns per simulated event of the certification/lowconflict cell
/// with the given observers installed.
fn engine_event_ns(install: impl Fn(&mut alc_tpsim::engine::Simulator)) -> f64 {
    (0..REPS)
        .map(|_| {
            let mut sim = engine::build(CcKind::Certification, Regime::Low, 0);
            install(&mut sim);
            let t0 = Instant::now();
            black_box(sim.run(OBSERVED_HORIZON_MS));
            t0.elapsed().as_nanos() as f64 / sim.events_processed() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn engine_observers(out: &mut Metrics) {
    let chrome = || ChromeWriter::new(std::io::sink()).expect("write to io::sink");
    out.push((
        "tpsim.engine.event_ns.sink_none".into(),
        engine_event_ns(|_| {}),
    ));
    out.push((
        "tpsim.engine.event_ns.sink_counting".into(),
        engine_event_ns(|sim| sim.set_trace_sink(Box::new(CountingSink::new()))),
    ));
    out.push((
        "tpsim.engine.event_ns.sink_chrome".into(),
        engine_event_ns(|sim| sim.set_trace_sink(Box::new(chrome()))),
    ));
    out.push((
        "tpsim.engine.event_ns.gatelog".into(),
        engine_event_ns(|sim| sim.set_gate_log(Box::new(JsonlSink::headerless(std::io::sink())))),
    ));
}

fn measurement(i: u64) -> Measurement {
    Measurement {
        departures: 200,
        aborts: 10,
        conflicts_per_txn: 0.4,
        mean_response_ms: 250.0,
        ..Measurement::basic(
            i as f64 * 2000.0,
            2000.0,
            130.0 + (i % 7) as f64,
            100.0 + (i % 40) as f64,
        )
    }
}

fn core(out: &mut Metrics) {
    // One window of 200 commits (each with the MPL change it causes)
    // and the harvest that closes it; reported per commit.
    const WINDOWS: u64 = 5_000;
    const PER_WINDOW: u64 = 200;
    let mut sampler = IntervalSampler::new(PerfIndicator::Throughput, 0.0, 0);
    let mut now = 0.0;
    out.push((
        "core.sampler.commit_harvest_ns".into(),
        ns_per_op(WINDOWS * PER_WINDOW, || {
            for _ in 0..WINDOWS {
                for i in 0..PER_WINDOW {
                    now += 10.0;
                    sampler.on_mpl_change(now, 40 + (i % 8) as u32);
                    sampler.on_commit(250.0);
                    // Keep each call's effect: without this the window
                    // collapses into one closed-form update.
                    black_box(&mut sampler);
                }
                black_box(sampler.harvest(now));
            }
        }),
    ));

    const UPDATES: u64 = 500_000;
    let controllers: [(&str, Box<dyn LoadController>); 6] = [
        ("is", Box::new(IncrementalSteps::new(IsParams::default()))),
        (
            "pa",
            Box::new(ParabolaApproximation::new(PaParams::default())),
        ),
        ("hybrid", Box::new(Hybrid::new(HybridParams::default()))),
        (
            "self_tuning_is",
            Box::new(SelfTuningIs::new(
                IsParams::default(),
                OuterParams::default(),
            )),
        ),
        (
            "self_tuning_pa",
            Box::new(SelfTuningPa::new(
                PaParams::default(),
                PaOuterParams::default(),
            )),
        ),
        (
            "retry_budget",
            Box::new(RetryBudget::new(RetryBudgetParams::default())),
        ),
    ];
    for (label, mut ctrl) in controllers {
        let mut i = 0u64;
        out.push((
            format!("core.controller.{label}.update_ns"),
            ns_per_op(UPDATES, || {
                for _ in 0..UPDATES {
                    i += 1;
                    black_box(ctrl.update(&measurement(i)));
                }
            }),
        ));
    }

    let mut rls = Rls::<3>::new(0.95, 1e4);
    let mut i = 0u64;
    out.push((
        "core.estimator.rls3.update_ns".into(),
        ns_per_op(UPDATES, || {
            for _ in 0..UPDATES {
                i += 1;
                let x = (i % 100) as f64 / 100.0;
                black_box(rls.update(&[1.0, x, x * x], 100.0 + x));
            }
        }),
    ));

    const PAIRS: u64 = 2_000_000;
    let gate = AdaptiveGate::new(64);
    out.push((
        "core.gate.acquire_release_ns".into(),
        ns_per_op(PAIRS, || {
            for _ in 0..PAIRS {
                black_box(&gate.acquire());
            }
        }),
    ));
    let full = AdaptiveGate::new(1);
    let held = full.acquire();
    out.push((
        "core.gate.try_acquire_refused_ns".into(),
        ns_per_op(PAIRS, || {
            for _ in 0..PAIRS {
                black_box(full.try_acquire().is_none());
            }
        }),
    ));
    drop(held);
}

fn window(i: u64) -> WindowSnapshot {
    WindowSnapshot {
        p50_ms: 200.0,
        p95_ms: 400.0,
        p99_ms: 600.0,
        shed: i % 3,
        queue_depth: 2,
        ..WindowSnapshot::from_measurement(measurement(i))
    }
}

fn is_law() -> Box<dyn ControlLaw> {
    Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(
        IsParams::default(),
    ))))
}

fn commit() -> Outcome {
    Outcome::Commit {
        response_ms: 2.0,
        conflicts: 0,
    }
}

fn runtime(out: &mut Metrics) {
    // What `complete()` does under the core lock: a commit and the MPL
    // change it causes.
    const COMMITS: u64 = 1_000_000;
    let mut core = LoopCore::new(is_law(), PerfIndicator::Throughput);
    let mut now = 0.0;
    out.push((
        "runtime.loopcore.commit_ns".into(),
        ns_per_op(COMMITS, || {
            for i in 0..COMMITS {
                now += 0.01;
                core.on_commit(now, 2.0 + (i % 5) as f64, 0);
                core.on_mpl(now, 8 + (i % 4) as u32);
            }
        }),
    ));
    // Closing a window of 64 commits; only the harvest is timed.
    const HARVESTS: u64 = 20_000;
    out.push((
        "runtime.loopcore.harvest_ns".into(),
        (0..REPS)
            .map(|_| {
                let mut busy = std::time::Duration::ZERO;
                for _ in 0..HARVESTS {
                    for _ in 0..64 {
                        now += 0.01;
                        core.on_commit(now, 2.0, 0);
                    }
                    let t0 = Instant::now();
                    black_box(core.harvest(now, 0));
                    busy += t0.elapsed();
                }
                busy.as_nanos() as f64 / HARVESTS as f64
            })
            .fold(f64::INFINITY, f64::min),
    ));
    let mut telemetry = TelemetryWindow::new(PerfIndicator::Throughput, 0.0, 0);
    out.push((
        "runtime.telemetry.commit_ns".into(),
        ns_per_op(COMMITS, || {
            for i in 0..COMMITS {
                telemetry.on_commit(2.0 + (i % 5) as f64, 0);
            }
            black_box(telemetry.harvest(1.0, 0));
        }),
    ));

    const DECISIONS: u64 = 500_000;
    let laws: [(&str, Box<dyn ControlLaw>); 3] = [
        ("paper_is", is_law()),
        ("aimd", Box::new(AimdLaw::new(AimdParams::default()))),
        (
            "retry_budget",
            Box::new(RetryBudgetLaw::new(Default::default())),
        ),
    ];
    for (label, mut law) in laws {
        let mut i = 0u64;
        out.push((
            format!("runtime.law.{label}.update_ns"),
            ns_per_op(DECISIONS, || {
                for _ in 0..DECISIONS {
                    i += 1;
                    black_box(law.decide(&window(i)));
                }
            }),
        ));
    }

    // One thread, admit → complete back to back: the shell's floor, with
    // each observer the product offers installed in turn.
    const PAIRS: u64 = 300_000;
    let pair_ns = |install: &dyn Fn(&ControlLoop)| {
        let rt = ControlLoop::new(is_law(), PerfIndicator::Throughput, AdmissionPolicy::Queue);
        install(&rt);
        ns_per_op(PAIRS, || {
            for _ in 0..PAIRS {
                let permit = rt.admit().expect("the Queue policy never sheds");
                rt.complete(permit, commit());
            }
        })
    };
    out.push(("runtime.control.pair_ns.plain".into(), pair_ns(&|_| {})));
    out.push((
        "runtime.control.pair_ns.gatelog".into(),
        pair_ns(&|rt| rt.set_gate_log(Box::new(JsonlSink::headerless(std::io::sink())))),
    ));
    out.push((
        "runtime.control.pair_ns.sink_counting".into(),
        pair_ns(&|rt| rt.set_trace_sink(Box::new(CountingSink::new()))),
    ));
    out.push((
        "runtime.control.pair_ns.sink_chrome".into(),
        pair_ns(&|rt| {
            rt.set_trace_sink(Box::new(
                ChromeWriter::new(std::io::sink()).expect("write to io::sink"),
            ))
        }),
    ));

    const LINES: u64 = 300_000;
    let event = GateEvent::Commit {
        at_ms: 1234.5678,
        response_ms: 2.25,
        conflicts: 1,
    };
    out.push((
        "runtime.log.event_line_ns".into(),
        ns_per_op(LINES, || {
            for _ in 0..LINES {
                black_box(event_line(black_box(&event)));
            }
        }),
    ));

    // Replay of the stream a loop records: per unit of work two MPL
    // changes and a commit, a decision every 256 units.
    let mut events = Vec::new();
    for i in 0..100_000u32 {
        let at_ms = f64::from(i) * 0.01;
        events.push(GateEvent::Mpl {
            at_ms,
            in_system: 1,
        });
        events.push(GateEvent::Commit {
            at_ms,
            response_ms: 2.0,
            conflicts: 0,
        });
        events.push(GateEvent::Mpl {
            at_ms,
            in_system: 0,
        });
        if i % 256 == 255 {
            events.push(GateEvent::Decision { at_ms, bound: 0 });
        }
    }
    out.push((
        "runtime.replay.events_per_s".into(),
        1e9 / ns_per_op(events.len() as u64, || {
            black_box(alc_runtime::replay(
                &events,
                is_law(),
                PerfIndicator::Throughput,
            ));
        }),
    ));
}

fn trace(out: &mut Metrics) {
    const EMITS: u64 = 1_000_000;
    let event = |i: u64| {
        TraceEvent::complete(
            name::ATTEMPT,
            cat::TXN,
            i as f64 * 0.5,
            12.25,
            alc_trace::PID_NODE,
            1 + (i % 32) as u32,
        )
        .with(alc_trace::Args::Outcome("commit"))
    };
    let mut counting = CountingSink::new();
    out.push((
        "trace.counting.emit_ns".into(),
        ns_per_op(EMITS, || {
            for i in 0..EMITS {
                counting.emit(&event(i));
            }
        }),
    ));
    let mut chrome = ChromeWriter::new(ByteCount::default()).expect("write to a counter");
    out.push((
        "trace.chrome.emit_ns".into(),
        ns_per_op(EMITS, || {
            for i in 0..EMITS {
                chrome.emit(&event(i));
            }
        }),
    ));
    let bytes = chrome.finish().expect("counting writer cannot fail").0;
    // One warm-up plus REPS timed rounds were emitted.
    out.push((
        "trace.chrome.bytes_per_event".into(),
        bytes as f64 / ((REPS as u64 + 1) * EMITS) as f64,
    ));
}

/// Forwards the engine's events into a writer the caller keeps, so the
/// trace can be finished after the simulator drops its boxed sink.
struct Forward(Arc<Mutex<ChromeWriter<Vec<u8>>>>);

impl TraceSink for Forward {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.lock().expect("trace mutex").emit(ev);
    }
}

fn json(out: &mut Metrics) {
    // A Chrome trace the product itself writes (≥4 MB), parsed back by
    // the vendored parser every spec and gate log goes through.
    let writer = Arc::new(Mutex::new(
        ChromeWriter::new(Vec::new()).expect("write to memory"),
    ));
    let mut sim = engine::build(CcKind::Certification, Regime::Low, 0);
    sim.set_trace_sink(Box::new(Forward(Arc::clone(&writer))));
    sim.run(OBSERVED_HORIZON_MS);
    drop(sim);
    let writer = Arc::into_inner(writer).expect("the simulator dropped its sink");
    let bytes = writer
        .into_inner()
        .expect("trace mutex")
        .finish()
        .expect("write to memory");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(text.len() >= 4 << 20, "trace is only {} bytes", text.len());
    let ns_per_byte = ns_per_op(text.len() as u64, || {
        black_box(
            serde_json::from_str::<serde::Value>(&text).expect("the product's own trace parses"),
        );
    });
    out.push(("serde_json.parse_mb_per_s".into(), 1e9 / ns_per_byte / 1e6));
}

/// Runs every kernel.
pub fn run_all() -> Metrics {
    let mut out = Metrics::new();
    des(&mut out);
    cc(&mut out);
    engine_observers(&mut out);
    core(&mut out);
    json(&mut out);
    runtime(&mut out);
    trace(&mut out);
    out
}
