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
//! operation each (see `alc_core::gate`), and each fact the core should
//! see (a population change, a commit, an abort, a shed) is appended,
//! stamped, to one of a few cache-line-aligned *stripes* — a small mutex
//! around a fixed array, picked by a per-thread index, so callers on
//! different stripes share no cache line but the gate's word. When a
//! stripe has no room, and always in [`ControlLoop::tick`],
//! [`ControlLoop::metrics`] and the sinks' setters and takers, the caller
//! takes the core mutex, empties **all** stripes, merges them by
//! timestamp (each stripe is already in order) and feeds the batch
//! through [`LoopCore::feed`] — the very function [`crate::replay()`]
//! feeds a log file through. Live and replay are one code path, and the
//! gate log, recorded inside the core, is exactly the stream the live
//! core consumed. The trace sink reads the same batch: a completion's
//! record also carries its attempt's admission stamp and trace lane.
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
//! Locks: core → stripe (a drain) and core → the gate's queue mutex
//! (`tick` setting the limit) are the only nestings; a caller releases
//! its stripe before it drains. The law and both sinks run only under
//! the core mutex, the sinks only in a drain (and a decision's trace
//! lines once its bound is in force), so every lock is taken as
//! `lock().unwrap_or_else(PoisonError::into_inner)`: a law or sink that
//! panics loses the decision or line at hand but never wedges `admit()`
//! or the next `tick()`, and a drain feeds its whole batch, and its
//! caller records its own fact, before a sink's panic is passed on
//! (`tests/panic_under_lock.rs`). Nothing allocates after construction —
//! `tests/alloc_gate.rs` pins that, drains and a trace sink included.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

pub use alc_core::control::{Decision, LoopCore};
use alc_core::gate::{AdaptiveGate, Permit};
use alc_core::gatelog::GateLogSink;
use alc_core::law::ControlLaw;
use alc_core::measure::PerfIndicator;
use alc_trace::name::{ATTEMPT, BOUND, CLIENT_SHED, GATE_DECISION, MPL};
use alc_trace::{cat as tcat, Args as TraceArgs, TraceEvent, TraceSink, PID_NODE, TID_CONTROL};

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
    // alc-lint: allow(wall-clock, reason="the shell's one clock: stamps events with ms since construction; the deterministic core never reads it")
    epoch: std::time::Instant,
}

/// What the core mutex guards: the core, the trace sink, and the buffer
/// a drain merges the stripes in.
struct Shell {
    core: LoopCore,
    trace: Option<Box<dyn TraceSink>>,
    /// `STRIPES` runs of `STRIPE_EVENTS` slots, run `i` for stripe `i`.
    scratch: Box<[Record]>,
}

/// Stripes the recording buffer is split into. Threads are dealt onto
/// them round-robin as they first call in, so up to this many callers
/// record without meeting each other.
const STRIPES: usize = 8;

/// Records one stripe holds before its next writer drains. An `admit` +
/// `complete` pair is two records, so this is a drain every 25 pairs
/// per thread — deliberately not a power of two, so that a caller
/// sampling every 2^k-th call does not keep sampling the draining one.
const STRIPE_EVENTS: usize = 51;

// Stripes plus merge buffer stay within 32 KB per loop.
const _: () = assert!(2 * STRIPES * STRIPE_EVENTS * std::mem::size_of::<Record>() <= 32 * 1024);

/// What a caller recorded, stamped: a drain feeds each fact in it to
/// the core, then hands that fact's trace line to the trace sink.
#[derive(Clone, Copy)]
struct Record {
    at_ms: f64,
    fact: Fact,
}

// 32 bytes: the tag lives in `Ended::commit`'s spare values.
#[derive(Clone, Copy)]
enum Fact {
    /// A population an admission or a release left: `Mpl`, an `mpl` counter.
    Mpl(u32),
    /// An attempt's end (`Commit`/`Abort`, `attempt`), then its release.
    Ended(Ended),
    /// A refused arrival: a shed, a `client.shed` instant.
    Shed,
}

/// How an attempt ended, with what its span needs besides (which
/// [`alc_core::gatelog::GateEvent::Abort`] has no room for).
#[derive(Clone, Copy)]
struct Ended {
    commit: bool,
    /// The population the attempt's release left.
    in_system: u32,
    response_ms: f64,
    conflicts: u64,
    admitted_at_ms: f64,
    /// The worker lane the span goes on, below [`TRACE_LANES`].
    lane: u8,
}

const NO_RECORD: Record = Record {
    at_ms: 0.0,
    fact: Fact::Shed,
};

impl Record {
    fn feed(&self, core: &mut LoopCore) {
        match self.fact {
            Fact::Mpl(in_system) => core.on_mpl(self.at_ms, in_system),
            Fact::Ended(e) if e.commit => core.on_commit(self.at_ms, e.response_ms, e.conflicts),
            Fact::Ended(e) => core.on_abort(self.at_ms, e.conflicts),
            Fact::Shed => core.on_shed(),
        }
    }

    /// The record's trace line, in the simulator's vocabulary.
    fn trace_line(&self) -> TraceEvent {
        let at_ms = self.at_ms;
        match self.fact {
            Fact::Mpl(in_system) => TraceEvent::counter(MPL, at_ms, PID_NODE, f64::from(in_system)),
            Fact::Ended(e) => {
                let outcome = if e.commit { "commit" } else { "abort" };
                let (since, lane) = (e.admitted_at_ms, 1 + u32::from(e.lane));
                TraceEvent::complete(ATTEMPT, tcat::TXN, since, at_ms - since, PID_NODE, lane)
                    .with(TraceArgs::Outcome(outcome))
            }
            Fact::Shed => {
                TraceEvent::instant(CLIENT_SHED, tcat::CLIENT, at_ms, PID_NODE, TID_CONTROL)
            }
        }
    }
}

/// A sink's panic, held until the batch is in.
type Fault = Option<Box<dyn Any + Send>>;

/// Runs `f`, keeping its panic in `fault` unless one is there already.
fn contain(fault: &mut Fault, f: impl FnOnce()) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(f)) {
        fault.get_or_insert(panic);
    }
}

fn raise(fault: Fault) {
    if let Some(panic) = fault {
        resume_unwind(panic);
    }
}

/// One recording stripe, on cache lines of its own.
#[repr(align(128))]
struct Stripe(Mutex<StripeBuf>);

struct StripeBuf {
    /// Records appended since the last drain, in timestamp order.
    records: [Record; STRIPE_EVENTS],
    len: usize,
    /// Admissions recorded here since construction.
    admissions: u64,
}

impl StripeBuf {
    fn push(&mut self, at_ms: f64, fact: Fact) {
        self.records[self.len] = Record { at_ms, fact };
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
/// gate's permit with the admission timestamp and a trace lane, so
/// [`ControlLoop::complete`] can record everything the attempt's span
/// needs without any per-attempt bookkeeping in the loop. Dropping it
/// without `complete` (a worker unwinding, say) releases the slot and
/// records the population left — an `Mpl` event and an `mpl` counter —
/// but no outcome: no departure, no attempt span. Like every record, it
/// reaches the sinks at the next drain.
pub struct AdmittedPermit<'a> {
    rt: &'a ControlLoop,
    /// `None` once [`ControlLoop::complete`] has taken it.
    inner: Option<Permit<'a>>,
    admitted_at_ms: f64,
    /// The attempt's trace lane.
    lane: u8,
}

impl Drop for AdmittedPermit<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let now = self.rt.now_ms();
            let in_system = inner.release();
            // A drain here runs the sinks; a panic there while this
            // thread unwinds would abort, so it ends here (the hook
            // reported it). The record is in either way.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                self.rt
                    .record(1, |stripe, _| stripe.push(now, Fact::Mpl(in_system)));
            }));
        }
    }
}

/// How many worker lanes attempt spans are spread over in traces: the
/// admission's sequence number is folded modulo this, keeping concurrent
/// attempts on distinct Perfetto rows without unbounded lane growth.
const TRACE_LANES: u64 = 32;

impl ControlLoop {
    /// Builds the runtime: the gate starts at the law's current bound.
    pub fn new(
        law: Box<dyn ControlLaw>,
        indicator: PerfIndicator,
        policy: AdmissionPolicy,
    ) -> Self {
        ControlLoop {
            gate: Arc::new(AdaptiveGate::new(law.current_bound())),
            policy,
            shell: Mutex::new(Shell {
                core: LoopCore::new(law, indicator),
                trace: None,
                scratch: vec![NO_RECORD; STRIPES * STRIPE_EVENTS].into_boxed_slice(),
            }),
            stripes: (0..STRIPES)
                .map(|_| {
                    Stripe(Mutex::new(StripeBuf {
                        records: [NO_RECORD; STRIPE_EVENTS],
                        len: 0,
                        admissions: 0,
                    }))
                })
                .collect(),
            // alc-lint: allow(wall-clock, reason="epoch stamp at construction; all later times are durations from it")
            epoch: std::time::Instant::now(),
        }
    }

    /// Runs `write` on the calling thread's stripe once it has room for
    /// `records` more records, draining first if it has not. `write` also
    /// gets the stripe's index. A sink's panic in that drain is raised
    /// only after `write` has run, so the caller's fact is never lost.
    fn record<R>(&self, records: usize, write: impl FnOnce(&mut StripeBuf, usize) -> R) -> R {
        let index = stripe_index();
        let stripe = &self.stripes[index].0;
        let mut fault = None;
        loop {
            let mut buf = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            if buf.len + records <= STRIPE_EVENTS {
                let written = write(&mut buf, index);
                drop(buf);
                raise(fault);
                return written;
            }
            drop(buf);
            let panic = self.drain(&mut self.shell.lock().unwrap_or_else(PoisonError::into_inner));
            fault = fault.or(panic);
        }
    }

    /// Empties every stripe into the core and the trace sink: records
    /// merged by timestamp, each fed to the core, then traced. The caller
    /// holds the core mutex; each stripe is locked only while copied out.
    /// A sink that panics costs its line, not the window the rest of the
    /// batch: the first panic is returned once every record is in.
    fn drain(&self, shell: &mut Shell) -> Fault {
        let (core, trace, scratch) = (&mut shell.core, &mut shell.trace, &mut shell.scratch);
        // The non-empty runs still to feed, as ranges of `scratch`.
        let mut runs = [(0, 0); STRIPES];
        let mut active = 0;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let mut buf = stripe.0.lock().unwrap_or_else(PoisonError::into_inner);
            let (start, len) = (i * STRIPE_EVENTS, buf.len);
            scratch[start..start + len].copy_from_slice(&buf.records[..len]);
            buf.len = 0;
            drop(buf);
            if len > 0 {
                runs[active] = (start, start + len);
                active += 1;
            }
        }
        // Earliest head first; ties go to the lower stripe, and within a
        // stripe order is kept because only heads are taken.
        let sinks = core.has_gate_log() || trace.is_some();
        let mut fault = None;
        while active > 0 {
            let mut first = 0;
            for run in 1..active {
                if scratch[runs[run].0].at_ms < scratch[runs[first].0].at_ms {
                    first = run;
                }
            }
            let record = scratch[runs[first].0];
            // A completion's record also carries the population its
            // release left: fed and traced as a record of its own.
            let release = match record.fact {
                Fact::Ended(e) => Some(Record {
                    at_ms: record.at_ms,
                    fact: Fact::Mpl(e.in_system),
                }),
                _ => None,
            };
            for part in std::iter::once(record).chain(release) {
                if sinks {
                    contain(&mut fault, || {
                        part.feed(core);
                        if let Some(trace) = trace {
                            trace.emit(&part.trace_line());
                        }
                    });
                } else {
                    part.feed(core);
                }
            }
            runs[first].0 += 1;
            if runs[first].0 == runs[first].1 {
                // Close the gap, keeping stripe order for the tie rule.
                runs.copy_within(first + 1..active, first);
                active -= 1;
            }
        }
        fault
    }

    /// Drains under the core mutex, then raises a sink's panic, if any.
    fn flush(&self) -> std::sync::MutexGuard<'_, Shell> {
        let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
        raise(self.drain(&mut shell));
        shell
    }

    /// Installs a gate-log recorder (e.g. [`crate::log::JsonlSink`]).
    /// Events recorded before the call are fed to the core first, so
    /// the log starts at a definite point of the stream.
    pub fn set_gate_log(&self, sink: Box<dyn GateLogSink>) {
        self.flush().core.set_gate_log(sink);
    }

    /// Removes and returns the recorder (to flush/inspect after a run),
    /// complete up to the call.
    pub fn take_gate_log(&self) -> Option<Box<dyn GateLogSink>> {
        self.flush().core.take_gate_log()
    }

    /// Installs a span/event trace sink (e.g. an
    /// [`alc_trace::ChromeWriter`]). The loop then emits the same
    /// vocabulary the simulator uses: an `attempt` span per admitted
    /// unit of work (outcome-tagged at completion), `mpl`/`bound`
    /// counters, `gate.decision` instants on each tick, and
    /// `client.shed` instants for shed arrivals — all stamped with ms
    /// since the loop's epoch. The sink names the process and its lanes
    /// here; after that it runs only in drains, so lines arrive in
    /// batches, in stamp order within each, and a decision's lines once
    /// its bound is in force. Records made before the call are fed
    /// first, so nothing recorded before installation is traced.
    pub fn set_trace_sink(&self, mut sink: Box<dyn TraceSink>) {
        let name = |tid, name, lane| TraceEvent::thread_name(PID_NODE, tid, name, lane);
        sink.emit(&TraceEvent::process_name(PID_NODE, "runtime", None));
        sink.emit(&name(TID_CONTROL, "control", None));
        for lane in 0..TRACE_LANES as u32 {
            sink.emit(&name(1 + lane, "worker-", Some(lane)));
        }
        self.flush().trace = Some(sink);
    }

    /// Removes and returns the trace sink (to finish/flush it), complete
    /// up to the call: what was recorded before it is traced first.
    pub fn take_trace_sink(&self) -> Option<Box<dyn TraceSink>> {
        self.flush().trace.take()
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
            let now = self.now_ms();
            self.record(1, |stripe, _| stripe.push(now, Fact::Shed));
            return None;
        };
        let now = self.now_ms();
        let in_system = inner.population();
        // Built before recording: a sink that panics in a drain here
        // unwinds through the permit's drop, which gives the slot back.
        let mut permit = AdmittedPermit {
            rt: self,
            inner: Some(inner),
            admitted_at_ms: now,
            lane: 0,
        };
        permit.lane = self.record(1, |stripe, index| {
            stripe.push(now, Fact::Mpl(in_system));
            stripe.admissions += 1;
            // A sequence number distinct across stripes without a shared
            // counter, folded onto the lanes.
            let seq = (stripe.admissions - 1) * STRIPES as u64 + index as u64;
            (seq % TRACE_LANES) as u8
        });
        Some(permit)
    }

    /// Reports how an admitted unit of work ended, releasing its slot.
    pub fn complete(&self, mut permit: AdmittedPermit<'_>, outcome: Outcome) {
        let inner = permit.inner.take().expect("complete runs once");
        let (admitted_at_ms, lane) = (permit.admitted_at_ms, permit.lane);
        let now = self.now_ms();
        // Clock first, release second: 5 % faster on the two-thread
        // ledger than the other order — the less a caller does between
        // its release and its next `admit`, the likelier the gate's line
        // is still in its cache.
        let in_system = inner.release();
        let (commit, response_ms, conflicts) = match outcome {
            Outcome::Commit {
                response_ms,
                conflicts,
            } => (true, response_ms, conflicts),
            Outcome::Abort { conflicts } => (false, 0.0, conflicts),
        };
        let ended = Fact::Ended(Ended {
            commit,
            in_system,
            // NaN to 0, the rest into [0, f64::MAX]: one bad reading
            // cannot turn the window's mean and quantiles into NaN or a
            // negative time, nor write a gate log that does not read back
            // (JSON has no NaN or ∞).
            response_ms: if response_ms.is_nan() {
                0.0
            } else {
                response_ms.clamp(0.0, f64::MAX)
            },
            conflicts,
            admitted_at_ms,
            lane,
        });
        self.record(1, |stripe, _| stripe.push(now, ended));
    }

    /// Closes the measurement window, runs the law, and pushes the new
    /// bound into the gate. Call from a timer at the measurement cadence.
    /// The bound is in force before the decision is traced, and a sink's
    /// panic in the drain is raised only once it is.
    pub fn tick(&self) -> Decision {
        let queue_depth = self.gate.stats().waiting;
        let mut shell = self.shell.lock().unwrap_or_else(PoisonError::into_inner);
        let mut fault = self.drain(&mut shell);
        // Stamped after the drain: nothing in the window is later.
        let decision = shell.core.harvest(self.now_ms(), queue_depth);
        self.gate.set_limit(decision.bound);
        if let Some(trace) = shell.trace.as_mut() {
            let (at_ms, bound) = (decision.at_ms, decision.bound);
            let instant =
                TraceEvent::instant(GATE_DECISION, tcat::GATE, at_ms, PID_NODE, TID_CONTROL);
            let counter = TraceEvent::counter(BOUND, at_ms, PID_NODE, f64::from(bound));
            for line in [instant.with(TraceArgs::Bound(bound)), counter] {
                contain(&mut fault, || trace.emit(&line));
            }
        }
        drop(shell);
        raise(fault);
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
        let shell = self.flush();
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
    /// Feeds what is still buffered, so a gate log or trace sink left
    /// installed ends complete. A sink's panic ends here (the hook
    /// reported it): raised while the thread unwinds, it would abort.
    fn drop(&mut self) {
        drop(self.drain(&mut self.shell.lock().unwrap_or_else(PoisonError::into_inner)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::{AimdLaw, AimdParams};
    use alc_core::gatelog::GateEvent;
    use alc_trace::name as tname;

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
