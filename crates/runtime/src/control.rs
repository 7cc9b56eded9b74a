//! The runtime control loop: a deterministic event-time core inside a
//! thread-safe wall-clock shell.
//!
//! The split is the crate's load-bearing design decision:
//!
//! * [`LoopCore`] (from `alc_core::control`, re-exported here) is the
//!   whole control stack — telemetry window, control law, optional
//!   gate-log recorder — driven exclusively by explicit `now_ms`
//!   arguments. It never reads a clock, spawns a thread, or touches I/O,
//!   so a recorded event stream replayed through it (see
//!   [`crate::replay()`]) reproduces the original decision sequence
//!   bit-for-bit. The simulator's sample tick runs the same type.
//! * [`ControlLoop`] is the embeddable shell: it owns an
//!   [`AdaptiveGate`], stamps events with wall-clock time since
//!   construction, and gets them to the core. Server threads call
//!   [`ControlLoop::admit`] / [`ControlLoop::complete`]; any timer
//!   calls [`ControlLoop::tick`] once per measurement interval.
//!
//! # Record locally, replay in batches
//!
//! The shell is itself a recorder and a replayer. `admit`/`complete`
//! never touch the core: the gate admits and releases by one atomic
//! operation each (see `alc_core::gate`), and the [`GateEvent`]s the core
//! should see (`Mpl`, `Commit`, `Abort`; sheds as a count) are appended
//! to one of a few cache-line-aligned *stripes* — a small mutex around a
//! fixed array, picked by a per-thread index, so callers on different
//! stripes share no cache line but the gate's word. When a stripe has no
//! room, and always in [`ControlLoop::tick`], [`ControlLoop::metrics`]
//! and [`ControlLoop::set_gate_log`] / [`ControlLoop::take_gate_log`],
//! the caller takes the core mutex, empties **all** stripes, merges them
//! by timestamp (each stripe is already in order) and feeds the batch
//! through [`LoopCore::feed`] — the very function [`crate::replay()`]
//! feeds a log file through. Live and replay are one code path, and the
//! gate log, recorded inside the core, is exactly the stream the live
//! core consumed.
//!
//! What batching changes: the core lags the callers by at most one
//! stripe's worth of events per thread until the next tick, and an event
//! stamped just before a drain but appended just after it reaches the
//! core behind later-stamped ones (the sampler tolerates that, as it
//! always had to: stamps were never taken under the core mutex). Every
//! `Mpl` value is a population the gate really had — the one the
//! caller's own atomic operation produced — but two changes whose
//! callers were stamped in the opposite order of their operations are
//! fed in stamp order.
//!
//! Locks: core → stripe is the only nesting (a drain); a caller releases
//! its stripe before it drains, and the gate's queue mutex and the trace
//! mutex are never held together with anything. The trace sink sits
//! behind a flag read before its mutex, so an absent sink costs one
//! load. The law and the gate-log sink run under the core mutex, the
//! trace sink under the trace mutex, so every lock is taken as
//! `lock().unwrap_or_else(PoisonError::into_inner)`: a law or sink that
//! panics loses the decision or log line at hand but never wedges
//! `admit()` or the next `tick()`, and a drain feeds its whole batch
//! before it passes a sink's panic on (`tests/panic_under_lock.rs`).
//! Nothing allocates after construction — the counting-allocator test in
//! `tests/alloc_gate.rs` pins that, drains included.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

pub use alc_core::control::{Decision, LoopCore};
use alc_core::gate::{AdaptiveGate, Permit};
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::law::ControlLaw;
use alc_core::measure::PerfIndicator;
use alc_trace::{cat as tcat, name as tname, Args as TraceArgs, TraceEvent, TraceSink};

use crate::metrics::MetricsSnapshot;
use crate::telemetry::Outcome;

/// What happens to an arrival that finds the gate full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Queue FIFO until a slot frees (never sheds).
    Queue,
    /// Queue up to the given patience, then shed.
    QueueTimeout(Duration),
    /// Admit only if a slot is free right now; otherwise shed.
    Shed,
}

/// The embeddable admission-control runtime: a thread-safe gate whose
/// limit a control law adjusts from live telemetry.
///
/// ```
/// use alc_runtime::{AdmissionPolicy, AimdLaw, AimdParams, ControlLoop, Outcome};
/// use alc_core::measure::PerfIndicator;
///
/// let gate = ControlLoop::new(
///     Box::new(AimdLaw::new(AimdParams::default())),
///     PerfIndicator::Throughput,
///     AdmissionPolicy::Queue,
/// );
/// let permit = gate.admit().expect("Queue policy never sheds");
/// // ... do the unit of work ...
/// gate.complete(permit, Outcome::Commit { response_ms: 12.5, conflicts: 0 });
/// let decision = gate.tick(); // from a timer, once per interval
/// assert!(decision.bound >= 1);
/// ```
pub struct ControlLoop {
    gate: Arc<AdaptiveGate>,
    policy: AdmissionPolicy,
    shell: Mutex<Shell>,
    stripes: Box<[Stripe]>,
    /// Whether a trace sink is installed; read before `trace` is locked.
    tracing: AtomicBool,
    trace: Mutex<Option<Box<dyn TraceSink>>>,
    // alc-lint: allow(wall-clock, reason="the shell's one clock: stamps events with ms since construction; the deterministic core never reads it")
    epoch: std::time::Instant,
}

/// What the core mutex guards: the core, and the buffer a drain merges
/// the stripes in.
struct Shell {
    core: LoopCore,
    /// `STRIPES` runs of `STRIPE_EVENTS` slots, run `i` for stripe `i`.
    scratch: Box<[GateEvent]>,
}

/// Stripes the recording buffer is split into. Threads are dealt onto
/// them round-robin as they first call in, so up to this many callers
/// record without meeting each other.
const STRIPES: usize = 8;

/// Events one stripe holds before its next writer drains. An `admit` +
/// `complete` pair is three events, so this is a drain every ≈20 pairs
/// per thread — deliberately not a power of two, so that a caller
/// sampling every 2^k-th call does not keep sampling the draining one.
const STRIPE_EVENTS: usize = 62;

// Stripes plus merge buffer stay within 32 KB per loop.
const _: () = assert!(2 * STRIPES * STRIPE_EVENTS * std::mem::size_of::<GateEvent>() <= 32 * 1024);

const NO_EVENT: GateEvent = GateEvent::Mpl {
    at_ms: 0.0,
    in_system: 0,
};

/// One recording stripe, on cache lines of its own.
#[repr(align(128))]
struct Stripe(Mutex<StripeBuf>);

struct StripeBuf {
    /// Events recorded since the last drain, in timestamp order.
    events: [GateEvent; STRIPE_EVENTS],
    len: usize,
    /// Arrivals shed since the last drain.
    sheds: u64,
    /// Admissions recorded here since construction.
    admissions: u64,
}

impl StripeBuf {
    fn push(&mut self, event: GateEvent) {
        self.events[self.len] = event;
        self.len += 1;
    }
}

/// The calling thread's stripe.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    INDEX.with(|index| {
        if index.get() == usize::MAX {
            index.set(NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        index.get()
    })
}

/// A held admission slot, returned by [`ControlLoop::admit`]. Wraps the
/// gate's permit with the admission timestamp and a sequence number, so
/// [`ControlLoop::complete`] can emit the attempt's lifecycle span
/// without any per-attempt bookkeeping in the loop. Dropping it without
/// `complete` (a worker unwinding, say) releases the slot and reports the
/// population left as an `Mpl` event and an `mpl` counter, but no
/// outcome: no departure, no attempt span.
pub struct AdmittedPermit<'a> {
    rt: &'a ControlLoop,
    /// `None` once [`ControlLoop::complete`] has taken it.
    inner: Option<Permit<'a>>,
    admitted_at_ms: f64,
    seq: u64,
}

impl Drop for AdmittedPermit<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let now = self.rt.now_ms();
            let in_system = inner.release();
            // Recording runs the sinks; a panic there while this thread
            // unwinds would abort, so it ends here (the hook reported it).
            let _ = catch_unwind(AssertUnwindSafe(|| {
                self.rt.record(1, |stripe, _| {
                    stripe.push(GateEvent::Mpl {
                        at_ms: now,
                        in_system,
                    });
                });
                self.rt.trace_mpl(now, in_system);
            }));
        }
    }
}

/// How many worker lanes attempt spans are spread over in traces: the
/// sequence number is folded modulo this, keeping concurrent attempts on
/// distinct Perfetto rows without unbounded lane growth.
const TRACE_LANES: u64 = 32;

impl ControlLoop {
    /// Builds the runtime: the gate starts at the law's current bound.
    pub fn new(
        law: Box<dyn ControlLaw>,
        indicator: PerfIndicator,
        policy: AdmissionPolicy,
    ) -> Self {
        let gate = Arc::new(AdaptiveGate::new(law.current_bound()));
        ControlLoop {
            gate,
            policy,
            shell: Mutex::new(Shell {
                core: LoopCore::new(law, indicator),
                scratch: vec![NO_EVENT; STRIPES * STRIPE_EVENTS].into_boxed_slice(),
            }),
            stripes: (0..STRIPES)
                .map(|_| {
                    Stripe(Mutex::new(StripeBuf {
                        events: [NO_EVENT; STRIPE_EVENTS],
                        len: 0,
                        sheds: 0,
                        admissions: 0,
                    }))
                })
                .collect(),
            tracing: AtomicBool::new(false),
            trace: Mutex::new(None),
            // alc-lint: allow(wall-clock, reason="epoch stamp at construction; all later times are durations from it")
            epoch: std::time::Instant::now(),
        }
    }

    /// Runs `write` on the calling thread's stripe once it has room for
    /// `events` more events, draining first if it has not. `write` also
    /// gets the stripe's index.
    fn record<R>(&self, events: usize, write: impl FnOnce(&mut StripeBuf, usize) -> R) -> R {
        let index = stripe_index();
        let stripe = &self.stripes[index].0;
        loop {
            {
                let mut buf = stripe.lock().unwrap_or_else(PoisonError::into_inner);
                if buf.len + events <= STRIPE_EVENTS {
                    return write(&mut buf, index);
                }
            }
            self.drain(&mut self.shell.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Empties every stripe into the core: sheds as counts, events merged
    /// by timestamp and fed one by one. The caller holds the core mutex;
    /// each stripe is locked only while it is copied out. A gate-log sink
    /// that panics costs the log its line, not the window the rest of the
    /// batch: the merge goes on, and the first panic is raised once every
    /// event is in.
    fn drain(&self, shell: &mut Shell) {
        let Shell { core, scratch } = shell;
        // The non-empty runs still to feed, as ranges of `scratch`.
        let mut runs = [(0, 0); STRIPES];
        let mut active = 0;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let mut buf = stripe.0.lock().unwrap_or_else(PoisonError::into_inner);
            let (start, len) = (i * STRIPE_EVENTS, buf.len);
            scratch[start..start + len].copy_from_slice(&buf.events[..len]);
            buf.len = 0;
            let sheds = std::mem::take(&mut buf.sheds);
            drop(buf);
            if len > 0 {
                runs[active] = (start, start + len);
                active += 1;
            }
            for _ in 0..sheds {
                core.on_shed();
            }
        }
        // Earliest head first; ties go to the lower stripe, and within a
        // stripe order is kept because only heads are taken.
        let logging = core.has_gate_log();
        let mut fault = None;
        while active > 0 {
            let mut first = 0;
            for run in 1..active {
                if scratch[runs[run].0].at_ms() < scratch[runs[first].0].at_ms() {
                    first = run;
                }
            }
            let event = &scratch[runs[first].0];
            if logging {
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| core.feed(event))) {
                    fault.get_or_insert(panic);
                }
            } else {
                core.feed(event);
            }
            runs[first].0 += 1;
            if runs[first].0 == runs[first].1 {
                // Close the gap, keeping stripe order for the tie rule.
                runs.copy_within(first + 1..active, first);
                active -= 1;
            }
        }
        if let Some(panic) = fault {
            resume_unwind(panic);
        }
    }

    /// Runs `emit` on the trace sink, if one is installed.
    fn trace(&self, emit: impl FnOnce(&mut dyn TraceSink)) {
        // Acquire pairs with the Release in `set_trace_sink`; the sink
        // itself is handed over by the mutex.
        if self.tracing.load(Ordering::Acquire) {
            let mut trace = self.trace.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = trace.as_mut() {
                emit(t.as_mut());
            }
        }
    }

    /// Emits the `mpl` counter for a population change, if tracing.
    fn trace_mpl(&self, now: f64, in_system: u32) {
        self.trace(|t| {
            t.emit(&TraceEvent::counter(
                tname::MPL,
                now,
                alc_trace::PID_NODE,
                f64::from(in_system),
            ));
        });
    }

    /// Installs a gate-log recorder (e.g. [`crate::log::JsonlSink`]).
    /// Events recorded before the call are fed to the core first, so
    /// the log starts at a definite point of the stream.
    pub fn set_gate_log(&self, sink: Box<dyn GateLogSink>) {
        let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
        self.drain(&mut shell);
        shell.core.set_gate_log(sink);
    }

    /// Removes and returns the recorder (to flush/inspect after a run),
    /// complete up to the call.
    pub fn take_gate_log(&self) -> Option<Box<dyn GateLogSink>> {
        let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
        self.drain(&mut shell);
        shell.core.take_gate_log()
    }

    /// Installs a span/event trace sink (e.g. an
    /// [`alc_trace::ChromeWriter`]). The loop then emits the same
    /// vocabulary the simulator uses: an `attempt` span per admitted
    /// unit of work (outcome-tagged at completion), `mpl`/`bound`
    /// counters, `gate.decision` instants on each tick, and
    /// `client.shed` instants for shed arrivals — all stamped with ms
    /// since the loop's epoch.
    pub fn set_trace_sink(&self, mut sink: Box<dyn TraceSink>) {
        sink.emit(&TraceEvent::process_name(
            alc_trace::PID_NODE,
            "runtime",
            None,
        ));
        sink.emit(&TraceEvent::thread_name(
            alc_trace::PID_NODE,
            alc_trace::TID_CONTROL,
            "control",
            None,
        ));
        for lane in 0..TRACE_LANES as u32 {
            sink.emit(&TraceEvent::thread_name(
                alc_trace::PID_NODE,
                1 + lane,
                "worker-",
                Some(lane),
            ));
        }
        *self.trace.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
        self.tracing.store(true, Ordering::Release);
    }

    /// Removes and returns the trace sink (to finish/flush it).
    pub fn take_trace_sink(&self) -> Option<Box<dyn TraceSink>> {
        self.tracing.store(false, Ordering::Release);
        self.trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Milliseconds since construction — the loop's time base.
    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1000.0
    }

    /// The underlying gate, for stats or direct sharing.
    pub fn gate(&self) -> &Arc<AdaptiveGate> {
        &self.gate
    }

    /// Requests admission under the configured policy. `None` means the
    /// arrival was shed (immediately under [`AdmissionPolicy::Shed`],
    /// after the patience under [`AdmissionPolicy::QueueTimeout`]; never
    /// under [`AdmissionPolicy::Queue`]). Hold the permit for the
    /// duration of the unit of work and pass it to
    /// [`ControlLoop::complete`].
    pub fn admit(&self) -> Option<AdmittedPermit<'_>> {
        let permit = match self.policy {
            AdmissionPolicy::Queue => Some(self.gate.acquire()),
            AdmissionPolicy::QueueTimeout(patience) => self.gate.acquire_timeout(patience),
            AdmissionPolicy::Shed => self.gate.try_acquire(),
        };
        let Some(inner) = permit else {
            self.record(0, |stripe, _| stripe.sheds += 1);
            self.trace(|t| {
                t.emit(&TraceEvent::instant(
                    tname::CLIENT_SHED,
                    tcat::CLIENT,
                    self.now_ms(),
                    alc_trace::PID_NODE,
                    alc_trace::TID_CONTROL,
                ));
            });
            return None;
        };
        let now = self.now_ms();
        let in_system = inner.population();
        let seq = self.record(1, |stripe, index| {
            stripe.push(GateEvent::Mpl {
                at_ms: now,
                in_system,
            });
            stripe.admissions += 1;
            // Distinct across stripes without a shared counter.
            (stripe.admissions - 1) * STRIPES as u64 + index as u64
        });
        // Built before tracing: a sink that panics here unwinds through
        // the permit's drop, which gives the slot back.
        let permit = AdmittedPermit {
            rt: self,
            inner: Some(inner),
            admitted_at_ms: now,
            seq,
        };
        self.trace_mpl(now, in_system);
        Some(permit)
    }

    /// Reports how an admitted unit of work ended, releasing its slot.
    pub fn complete(&self, mut permit: AdmittedPermit<'_>, outcome: Outcome) {
        let inner = permit.inner.take().expect("complete runs once");
        let (admitted_at_ms, seq) = (permit.admitted_at_ms, permit.seq);
        let now = self.now_ms();
        // Clock first, release second: 5 % faster on the two-thread
        // ledger than the other order — the less a caller does between
        // its release and its next `admit`, the likelier the gate's line
        // is still in its cache.
        let in_system = inner.release();
        let (ended, outcome_name) = match outcome {
            Outcome::Commit {
                response_ms,
                conflicts,
            } => (
                GateEvent::Commit {
                    at_ms: now,
                    // NaN to 0, the rest into [0, f64::MAX]: one bad
                    // reading cannot turn the window's mean and quantiles
                    // into NaN or a negative time, nor write a gate log
                    // that does not read back (JSON has no NaN or ∞).
                    response_ms: if response_ms.is_nan() {
                        0.0
                    } else {
                        response_ms.clamp(0.0, f64::MAX)
                    },
                    conflicts,
                },
                "commit",
            ),
            Outcome::Abort { conflicts } => (
                GateEvent::Abort {
                    at_ms: now,
                    conflicts,
                },
                "abort",
            ),
        };
        self.record(2, |stripe, _| {
            stripe.push(ended);
            stripe.push(GateEvent::Mpl {
                at_ms: now,
                in_system,
            });
        });
        self.trace(|t| {
            t.emit(
                &TraceEvent::complete(
                    tname::ATTEMPT,
                    tcat::TXN,
                    admitted_at_ms,
                    now - admitted_at_ms,
                    alc_trace::PID_NODE,
                    1 + (seq % TRACE_LANES) as u32,
                )
                .with(TraceArgs::Outcome(outcome_name)),
            );
            t.emit(&TraceEvent::counter(
                tname::MPL,
                now,
                alc_trace::PID_NODE,
                f64::from(in_system),
            ));
        });
    }

    /// Closes the measurement window, runs the law, and pushes the new
    /// bound into the gate. Call from a timer at the measurement cadence.
    pub fn tick(&self) -> Decision {
        let queue_depth = self.gate.stats().waiting;
        let decision = {
            let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
            self.drain(&mut shell);
            // Stamped after the drain: nothing in the window is later.
            shell.core.harvest(self.now_ms(), queue_depth)
        };
        self.gate.set_limit(decision.bound);
        self.trace(|t| {
            t.emit(
                &TraceEvent::instant(
                    tname::GATE_DECISION,
                    tcat::GATE,
                    decision.at_ms,
                    alc_trace::PID_NODE,
                    alc_trace::TID_CONTROL,
                )
                .with(TraceArgs::Bound(decision.bound)),
            );
            t.emit(&TraceEvent::counter(
                tname::BOUND,
                decision.at_ms,
                alc_trace::PID_NODE,
                f64::from(decision.bound),
            ));
        });
        decision
    }

    /// Flattens the loop's live state into one [`MetricsSnapshot`]:
    /// gate occupancy now, cumulative outcome counters (everything
    /// reported before the call), and the last harvested window (zeros
    /// before the first [`ControlLoop::tick`]). Export a sampled series
    /// with [`write_metrics_jsonl`](crate::metrics::write_metrics_jsonl).
    pub fn metrics(&self) -> MetricsSnapshot {
        let now = self.now_ms();
        let stats = self.gate.stats();
        let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
        self.drain(&mut shell);
        let (commits, aborts, sheds, decisions) = shell.core.totals();
        let last = shell.core.last_decision();
        let (window, queue_depth) = match last {
            Some(d) => (Some(&d.window), d.window.queue_depth),
            None => (None, 0),
        };
        MetricsSnapshot {
            at_ms: now,
            bound: stats.limit,
            in_use: stats.in_use,
            waiting: stats.waiting,
            commits,
            aborts,
            sheds,
            decisions,
            window_departures: window.map_or(0, |w| w.measurement.departures),
            window_aborts: window.map_or(0, |w| w.measurement.aborts),
            window_shed: window.map_or(0, |w| w.shed),
            observed_mpl: window.map_or(0.0, |w| w.measurement.observed_mpl),
            mean_response_ms: window.map_or(0.0, |w| w.measurement.mean_response_ms),
            p50_ms: window.map_or(0.0, |w| w.p50_ms),
            p95_ms: window.map_or(0.0, |w| w.p95_ms),
            p99_ms: window.map_or(0.0, |w| w.p99_ms),
            queue_depth,
        }
    }
}

impl Drop for ControlLoop {
    /// Feeds what is still buffered, so a gate log left installed ends
    /// complete.
    fn drop(&mut self) {
        self.drain(&mut self.shell.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::{AimdLaw, AimdParams};

    fn aimd_loop(policy: AdmissionPolicy, initial_bound: u32) -> ControlLoop {
        ControlLoop::new(
            Box::new(AimdLaw::new(AimdParams {
                initial_bound,
                ..AimdParams::default()
            })),
            PerfIndicator::Throughput,
            policy,
        )
    }

    #[test]
    fn admit_complete_tick_cycle() {
        let rt = aimd_loop(AdmissionPolicy::Queue, 2);
        let p1 = rt.admit().expect("queue policy");
        let p2 = rt.admit().expect("queue policy");
        assert_eq!(rt.gate().in_use(), 2);
        rt.complete(
            p1,
            Outcome::Commit {
                response_ms: 10.0,
                conflicts: 0,
            },
        );
        rt.complete(p2, Outcome::Abort { conflicts: 1 });
        assert_eq!(rt.gate().in_use(), 0);
        let d = rt.tick();
        assert_eq!(d.window.measurement.departures, 1);
        assert_eq!(d.window.measurement.aborts, 1);
        assert_eq!(rt.gate().limit(), d.bound);
    }

    #[test]
    fn gate_starts_at_the_laws_bound() {
        let rt = aimd_loop(AdmissionPolicy::Queue, 4);
        assert_eq!(rt.gate().limit(), 4);
    }

    #[test]
    fn bound_explores_and_stays_in_range() {
        use alc_core::controller::{IncrementalSteps, IsParams};
        use alc_core::law::PaperLaw;

        let rt = ControlLoop::new(
            Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(IsParams {
                initial_bound: 4,
                max_bound: 64,
                ..IsParams::default()
            })))),
            PerfIndicator::Throughput,
            AdmissionPolicy::Queue,
        );
        let mut bounds = Vec::new();
        for round in 0..6u64 {
            for _ in 0..(10 + round * 10) {
                let p = rt.admit().expect("queue policy");
                rt.complete(
                    p,
                    Outcome::Commit {
                        response_ms: 1.0,
                        conflicts: 0,
                    },
                );
            }
            bounds.push(rt.tick().bound);
        }
        // The first update has no history, so the controller must probe
        // upward at least once; every bound stays within the static range.
        assert!(
            bounds.iter().max().expect("six rounds") > &4,
            "controller never explored: {bounds:?}"
        );
        assert!(bounds.iter().all(|&b| (1..=64).contains(&b)));
    }

    #[test]
    fn shed_policy_rejects_at_capacity_and_counts() {
        let rt = aimd_loop(AdmissionPolicy::Shed, 1);
        let held = rt.admit().expect("capacity free");
        assert!(rt.admit().is_none(), "full gate must shed");
        rt.complete(
            held,
            Outcome::Commit {
                response_ms: 5.0,
                conflicts: 0,
            },
        );
        let d = rt.tick();
        assert_eq!(d.window.shed, 1);
    }

    /// A sink sharing its buffer with the test body.
    struct SharedSink(Arc<Mutex<Vec<GateEvent>>>);

    impl GateLogSink for SharedSink {
        fn record(&mut self, event: &GateEvent) {
            self.0.lock().unwrap().push(*event);
        }
    }

    #[test]
    fn gate_log_mirrors_the_event_stream() {
        let rt = aimd_loop(AdmissionPolicy::Queue, 4);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        rt.set_gate_log(Box::new(SharedSink(Arc::clone(&buffer))));
        let p = rt.admit().expect("queue policy");
        rt.complete(
            p,
            Outcome::Commit {
                response_ms: 7.0,
                conflicts: 2,
            },
        );
        let d = rt.tick();
        let events = buffer.lock().unwrap().clone();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                GateEvent::Mpl { .. } => "mpl",
                GateEvent::Commit { .. } => "commit",
                GateEvent::Abort { .. } => "abort",
                GateEvent::Decision { .. } => "decision",
            })
            .collect();
        assert_eq!(kinds, vec!["mpl", "commit", "mpl", "decision"]);
        match events.last().expect("non-empty") {
            GateEvent::Decision { bound, .. } => assert_eq!(*bound, d.bound),
            other => panic!("unexpected final event {other:?}"),
        }
    }

    /// A trace sink sharing its event buffer with the test body.
    struct SharedTrace(Arc<Mutex<Vec<TraceEvent>>>);

    impl TraceSink for SharedTrace {
        fn emit(&mut self, ev: &TraceEvent) {
            self.0.lock().unwrap().push(*ev);
        }
    }

    #[test]
    fn trace_and_metrics_see_the_same_run() {
        let rt = aimd_loop(AdmissionPolicy::Shed, 1);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        rt.set_trace_sink(Box::new(SharedTrace(Arc::clone(&buffer))));
        let held = rt.admit().expect("capacity free");
        assert!(held.admitted_at_ms >= 0.0);
        assert!(rt.admit().is_none(), "full gate must shed");
        rt.complete(
            held,
            Outcome::Commit {
                response_ms: 5.0,
                conflicts: 0,
            },
        );
        let d = rt.tick();
        let events = buffer.lock().unwrap().clone();
        let attempt = events
            .iter()
            .find(|e| e.ph == alc_trace::Phase::Complete && e.name == tname::ATTEMPT)
            .expect("attempt span");
        assert!(matches!(attempt.args, TraceArgs::Outcome("commit")));
        assert!(attempt.dur_ms >= 0.0);
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Mark && e.name == tname::CLIENT_SHED));
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Mark && e.name == tname::GATE_DECISION));
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Counter && e.name == tname::MPL));
        let m = rt.metrics();
        assert_eq!((m.commits, m.aborts, m.sheds, m.decisions), (1, 0, 1, 1));
        assert_eq!(m.window_departures, 1);
        assert_eq!(m.window_shed, 1);
        assert_eq!(m.bound, d.bound);
        assert_eq!(m.in_use, 0);
        assert!(rt.take_trace_sink().is_some());
    }

    #[test]
    fn queue_timeout_sheds_when_saturated() {
        let rt = aimd_loop(AdmissionPolicy::QueueTimeout(Duration::from_millis(10)), 1);
        let held = rt.admit().expect("first admit");
        assert!(rt.admit().is_none(), "second admit must time out");
        drop(held);
    }
}
