//! What a panic under one of the shell's locks may do to later callers:
//! nothing. A law runs under the core mutex, a gate-log sink and a trace
//! sink under it during a drain, and a worker may unwind while it holds
//! a permit. Each case below makes one of them
//! panic, catches the panic, and then checks that the loop goes on:
//! `admit`, `complete`, `tick` and `metrics` return; the gate holds
//! exactly the permits still out and admits none past the bound in force;
//! `total_admitted` counts every admission; the next `tick` decides; and
//! the last population the core was fed is the gate's. Every case runs
//! under a watchdog, so a wedged lock fails the test instead of hanging
//! the suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::law::{ControlLaw, WindowSnapshot};
use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, AdmittedPermit, ControlLoop, Outcome};
use alc_trace::{Phase, TraceEvent, TraceSink};

/// The bound the test law always picks.
const BOUND: u32 = 2;

/// A law that keeps the bound at [`BOUND`] and panics on one decision.
struct FlakyLaw {
    decisions: u32,
    panic_on: u32,
}

impl ControlLaw for FlakyLaw {
    fn decide(&mut self, _: &WindowSnapshot) -> u32 {
        self.decisions += 1;
        assert!(
            self.decisions != self.panic_on,
            "law fails on decision {}",
            self.decisions
        );
        BOUND
    }

    fn current_bound(&self) -> u32 {
        BOUND
    }
}

/// A switch the test arms; the sink holding it panics once, on its next
/// call after arming.
#[derive(Clone, Default)]
struct Fuse(Arc<AtomicBool>);

impl Fuse {
    fn arm(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    fn blow(&self, what: &str) {
        assert!(!self.0.swap(false, Ordering::SeqCst), "{what} fails");
    }
}

/// A gate log kept for the test body, behind a fuse.
struct CaptureLog(Arc<Mutex<Vec<GateEvent>>>, Fuse);

impl GateLogSink for CaptureLog {
    fn record(&mut self, event: &GateEvent) {
        self.1.blow("gate-log sink");
        self.0.lock().unwrap().push(*event);
    }
}

/// A trace sink that counts the lines it takes past the lane names,
/// behind a fuse.
struct FusedTrace(Fuse, Arc<AtomicU64>);

impl TraceSink for FusedTrace {
    fn emit(&mut self, event: &TraceEvent) {
        self.0.blow("trace sink");
        if event.ph != Phase::Meta {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// A loop under `Shed` whose law panics on decision `panic_on` (0:
/// never), with a capturing gate log and a trace sink installed.
struct Rig {
    rt: ControlLoop,
    log: Arc<Mutex<Vec<GateEvent>>>,
    log_fuse: Fuse,
    trace_fuse: Fuse,
    /// Lines the trace sink took.
    traced: Arc<AtomicU64>,
    /// Admissions the gate must have counted.
    admitted: AtomicU64,
}

impl Rig {
    fn new(panic_on: u32) -> Self {
        let rt = ControlLoop::new(
            Box::new(FlakyLaw {
                decisions: 0,
                panic_on,
            }),
            PerfIndicator::Throughput,
            AdmissionPolicy::Shed,
        );
        let (log, log_fuse, trace_fuse, traced) = Default::default();
        rt.set_gate_log(Box::new(CaptureLog(
            Arc::clone(&log),
            Fuse::clone(&log_fuse),
        )));
        rt.set_trace_sink(Box::new(FusedTrace(
            Fuse::clone(&trace_fuse),
            Arc::clone(&traced),
        )));
        Rig {
            rt,
            log,
            log_fuse,
            trace_fuse,
            traced,
            admitted: AtomicU64::new(0),
        }
    }

    /// One admission that must succeed.
    fn admit(&self) -> AdmittedPermit<'_> {
        let permit = self.rt.admit().expect("a slot is free");
        self.count_admission();
        permit
    }

    /// Counts an admission made without [`Rig::admit`].
    fn count_admission(&self) {
        self.admitted.fetch_add(1, Ordering::SeqCst);
    }

    /// Trace lines the loop owes the sink: one per gate-log line, one
    /// more per decision (its `bound` counter), one per shed. A full
    /// gate log makes this the lines lost to the sink's own panics.
    fn untraced_lines(&self) -> u64 {
        let m = self.rt.metrics();
        let owed = self.log.lock().unwrap().len() as u64 + m.decisions + m.sheds;
        owed - self.traced.load(Ordering::SeqCst)
    }

    /// The population in the last `Mpl` event the core was fed.
    fn last_fed_mpl(&self) -> Option<u32> {
        self.log
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find_map(|e| match *e {
                GateEvent::Mpl { in_system, .. } => Some(in_system),
                _ => None,
            })
    }
}

/// Sheds on the calling thread's stripe until `room` of its slots are
/// left, with the gate full and `held` the permits that fill it. A drain
/// shows as new gate-log lines, so the stripe's size is found first:
/// behind two `Mpl` records, the shed that drains is the one that found
/// the stripe full.
fn fill_stripe<'a>(rig: &'a Rig, held: &mut Vec<AdmittedPermit<'a>>, room: usize) {
    let rt = &rig.rt;
    rt.metrics();
    drop(held.pop());
    held.push(rig.admit());
    let logged = rig.log.lock().unwrap().len();
    let mut sheds = 0;
    while rig.log.lock().unwrap().len() == logged {
        assert!(rt.admit().is_none(), "the gate is full");
        sheds += 1;
        assert!(sheds < 10_000, "no drain");
    }
    // The stripe now holds that one shed.
    for _ in 1..sheds + 1 - room {
        assert!(rt.admit().is_none(), "the gate is full");
    }
}

fn commit() -> Outcome {
    Outcome::Commit {
        response_ms: 1.0,
        conflicts: 0,
    }
}

/// After a caught fault, with `held` permits still out: every entry
/// point returns and the accounting holds.
fn goes_on(rig: &Rig, held: Vec<AdmittedPermit<'_>>) {
    let rt = &rig.rt;
    let decisions = rt.metrics().decisions;
    assert_eq!(rt.gate().in_use() as usize, held.len(), "a slot leaked");
    let mut admitted = rig.admitted.load(Ordering::SeqCst);
    assert_eq!(rt.gate().stats().total_admitted, admitted);
    assert_eq!(
        rig.last_fed_mpl(),
        Some(rt.gate().in_use()),
        "the core's MPL is stale"
    );

    // Fill the gate: admission strictly under the bound, refusal at it.
    let mut held = held;
    loop {
        let (limit, before) = (rt.gate().limit(), rt.gate().in_use());
        match rt.admit() {
            Some(permit) => {
                assert!(
                    before < limit,
                    "admitted at load {before} under bound {limit}"
                );
                admitted += 1;
                held.push(permit);
            }
            None => {
                assert!(before >= limit, "shed at load {before} under bound {limit}");
                break;
            }
        }
    }
    for permit in held {
        rt.complete(permit, commit());
    }
    let decision = rt.tick();
    assert_eq!(decision.bound, BOUND);
    assert_eq!(rt.gate().limit(), BOUND);
    let m = rt.metrics();
    assert_eq!(m.decisions, decisions + 1, "the next tick did not decide");
    assert_eq!((m.in_use, rt.gate().stats().total_admitted), (0, admitted));
    assert_eq!(rig.last_fed_mpl(), Some(0));
}

/// Runs `f` on its own thread and fails if it has not returned within
/// `secs`: a wedged lock shows as a hang, not as a wrong answer.
fn with_watchdog(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => body.join().expect("body finished"),
        Err(RecvTimeoutError::Timeout) => panic!("the loop wedged for {secs} s"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("sender dropped without sending"))
        }
    }
}

#[test]
fn a_law_that_panics_in_tick_leaves_the_loop_deciding() {
    with_watchdog(60, || {
        let rig = Rig::new(2);
        let first = rig.admit();
        assert_eq!(rig.rt.tick().bound, BOUND);
        let second = rig.admit();
        rig.rt.complete(second, commit());
        assert!(catch_unwind(AssertUnwindSafe(|| rig.rt.tick())).is_err());
        goes_on(&rig, vec![first]);
    });
}

#[test]
fn a_gate_log_sink_that_panics_in_a_drain_leaves_the_loop_working() {
    with_watchdog(60, || {
        let rig = Rig::new(0);
        let first = rig.admit();
        for _ in 0..10 {
            let next = rig.admit();
            rig.rt.complete(next, commit());
        }
        rig.log_fuse.arm();
        assert!(catch_unwind(AssertUnwindSafe(|| rig.rt.metrics())).is_err());
        // The log lost the line the sink failed on; the core lost nothing
        // of the batch that line was in.
        assert_eq!(rig.rt.metrics().commits, 10);
        assert_eq!(rig.rt.tick().window.measurement.departures, 10);
        assert_eq!(rig.last_fed_mpl(), Some(rig.rt.gate().in_use()));
        let third = rig.admit();
        rig.rt.complete(third, commit());
        goes_on(&rig, vec![first]);
    });
}

#[test]
fn a_trace_sink_that_panics_leaves_the_loop_working() {
    with_watchdog(60, || {
        let rig = Rig::new(0);
        let first = rig.admit();
        for _ in 0..10 {
            let next = rig.admit();
            rig.rt.complete(next, commit());
        }
        // In `tick`: the window has the whole batch, and the decision is
        // made and in force before the panic is passed on.
        rig.trace_fuse.arm();
        assert!(catch_unwind(AssertUnwindSafe(|| rig.rt.tick())).is_err());
        let m = rig.rt.metrics();
        assert_eq!((m.decisions, m.window_departures), (1, 10));
        assert_eq!(rig.rt.gate().limit(), BOUND);
        // In `metrics`.
        for _ in 0..10 {
            let next = rig.admit();
            rig.rt.complete(next, commit());
        }
        rig.trace_fuse.arm();
        assert!(catch_unwind(AssertUnwindSafe(|| rig.rt.metrics())).is_err());
        assert_eq!(rig.rt.metrics().commits, 20);
        // In an `admit` whose stripe is full: it records its admission,
        // and the new permit, unwinding, gives its slot back.
        let mut held = vec![first, rig.admit()];
        fill_stripe(&rig, &mut held, 1);
        drop(held.pop());
        rig.trace_fuse.arm();
        assert!(catch_unwind(AssertUnwindSafe(|| rig.rt.admit())).is_err());
        rig.count_admission();
        assert_eq!(rig.rt.metrics().commits, 20);
        assert_eq!(rig.last_fed_mpl(), Some(rig.rt.gate().in_use()));
        assert_eq!(
            rig.untraced_lines(),
            3,
            "the trace lost more than its lines"
        );
        goes_on(&rig, held);
        assert_eq!(rig.untraced_lines(), 3);
    });
}

#[test]
fn a_worker_that_panics_holding_a_permit_gives_its_slot_back() {
    with_watchdog(60, || {
        let rig = Rig::new(0);
        let first = rig.admit();
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let _permit = rig.admit();
                panic!("worker fails holding its permit");
            });
            assert!(worker.join().is_err());
        });
        rig.rt.metrics();
        assert_eq!(
            rig.last_fed_mpl(),
            Some(1),
            "the unwound permit's release was not fed"
        );
        // Again, with the worker's stripe full, so that the permit's drop
        // as the worker unwinds is the call that drains, and the trace
        // sink fails inside it: a second panic there would abort.
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let mut held = vec![rig.admit()];
                fill_stripe(&rig, &mut held, 0);
                rig.trace_fuse.arm();
                panic!("worker fails holding its permit");
            });
            assert!(worker.join().is_err());
        });
        assert_eq!(rig.untraced_lines(), 1);
        assert_eq!(rig.last_fed_mpl(), Some(1));
        goes_on(&rig, vec![first]);
    });
}
