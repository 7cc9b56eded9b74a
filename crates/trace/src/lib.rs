//! Span/event tracing for the load-control stack.
//!
//! `alc-trace` is the observability backbone shared by the simulator
//! (`alc-tpsim`) and the embeddable runtime (`alc-runtime`): both emit
//! the same event vocabulary through the [`TraceSink`] trait, so a
//! simulated scenario and a production embedding produce the same trace
//! format and are diagnosed with the same tools.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Events carry no wall-clock readings — the engine
//!    stamps simulated milliseconds, the runtime stamps its explicit
//!    `now_ms` epoch offsets — and every id (flow chains) comes from a
//!    caller-owned counter. Two identical runs emit byte-identical
//!    traces.
//! 2. **Allocation discipline.** A [`TraceEvent`] is a plain value of
//!    `Copy` fields (`&'static str` names, numeric payloads in the
//!    [`Args`] enum); constructing and emitting one allocates nothing.
//!    The [`ChromeWriter`] renders into one reused line buffer, and the
//!    [`CountingSink`] mutates existing tallies in steady state.
//! 3. **No dependencies.** The Chrome/Perfetto trace-JSON subset we
//!    emit is written by hand; nothing outside `std` is required.
//!
//! The output format is the Chrome trace-event JSON object form
//! (`{"displayTimeUnit":"ms","traceEvents":[…]}`), loadable directly in
//! Perfetto or `chrome://tracing`. Spans are `B`/`E` pairs, service
//! bursts are `X` completes, markers are `i` instants, rolling gauges
//! are `C` counters, and retry chains are linked with `s`/`f` flow
//! events sharing a deterministic id.

#![warn(missing_docs)]

mod chrome;
mod count;

pub use chrome::ChromeWriter;
pub use count::{CountingSink, Tally};

/// Process id for the simulated (or embedded) processing node.
pub const PID_NODE: u32 = 1;
/// Process id for the client population (closed-loop client events).
pub const PID_CLIENTS: u32 = 2;
/// Thread id for the control plane (gate decisions, CC switches,
/// faults, counters) within [`PID_NODE`].
pub const TID_CONTROL: u32 = 0;

/// The shared event vocabulary, and its one list: README points here.
/// Emitters use these constants so the reconciliation tooling can rely
/// on exact names.
pub mod name {
    /// Span: queued at the gate, waiting for admission.
    pub const WAIT: &str = "wait";
    /// Span: admitted into the system until commit/timeout/displace.
    pub const ATTEMPT: &str = "attempt";
    /// Span: one execution run (begin-run to commit or abort).
    pub const RUN: &str = "run";
    /// Span: blocked on a lock conflict.
    pub const BLOCKED: &str = "blocked";
    /// Span: waiting out a restart delay after an abort.
    pub const RESTART_WAIT: &str = "restart-wait";
    /// Complete: one CPU service burst.
    pub const CPU: &str = "cpu";
    /// Complete: one disk service burst.
    pub const DISK: &str = "disk";
    /// Instant: the control law published a new MPL bound.
    pub const GATE_DECISION: &str = "gate.decision";
    /// Instant: the meta-controller decided to switch CC protocols.
    pub const CC_DECIDE: &str = "cc.switch.decide";
    /// Instant: a drained CC switch completed.
    pub const CC_COMPLETE: &str = "cc.switch.complete";
    /// Instant: a capacity fault (or repair) changed the CPU station.
    pub const FAULT: &str = "fault";
    /// Instant: a client's patience expired and its attempt was canceled.
    pub const CLIENT_TIMEOUT: &str = "client.timeout";
    /// Instant: a retry was refused admission at the gate (shed).
    pub const CLIENT_SHED: &str = "client.shed";
    /// Instant: a client gave up after exhausting its retry policy.
    pub const CLIENT_ABANDON: &str = "client.abandon";
    /// Flow: links a failed attempt to the retry it caused.
    pub const RETRY: &str = "retry";
    /// Counter: the observed multiprogramming level (in-system count).
    pub const MPL: &str = "mpl";
    /// Counter: the admission gate's MPL bound.
    pub const BOUND: &str = "bound";
}

/// Event categories (`cat` field), used by trace viewers for filtering.
pub mod cat {
    /// Transaction lifecycle spans.
    pub const TXN: &str = "txn";
    /// Service bursts at the physical stations.
    pub const SVC: &str = "svc";
    /// Admission-gate control events.
    pub const GATE: &str = "gate";
    /// Concurrency-control switching events.
    pub const CC: &str = "cc";
    /// Capacity faults and repairs.
    pub const FAULT: &str = "fault";
    /// Closed-loop client population events.
    pub const CLIENT: &str = "client";
}

/// Chrome trace-event phase. Rendered as the `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// `B` — span begin.
    Begin,
    /// `E` — span end.
    End,
    /// `X` — complete event with a duration.
    Complete,
    /// `i` — instant marker. (Named to stay clear of the wall-clock
    /// type the determinism lint polices.)
    Mark,
    /// `C` — counter sample.
    Counter,
    /// `s` — flow start.
    FlowStart,
    /// `f` — flow finish.
    FlowEnd,
    /// `M` — metadata (process/thread names).
    Meta,
}

impl Phase {
    /// The single-character `ph` value Chrome expects.
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Complete => 'X',
            Phase::Mark => 'i',
            Phase::Counter => 'C',
            Phase::FlowStart => 's',
            Phase::FlowEnd => 'f',
            Phase::Meta => 'M',
        }
    }
}

/// Structured event payload, rendered into the `args` object without
/// allocating. `None` omits the field entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Args {
    /// No payload.
    None,
    /// `{"bound": n}` — an MPL bound.
    Bound(u32),
    /// `{"value": x}` — a counter sample.
    Value(f64),
    /// `{"outcome": "..."}` — how a span ended.
    Outcome(&'static str),
    /// `{"from": "...", "to": "..."}` — a CC protocol switch.
    Switch {
        /// Protocol being switched away from.
        from: &'static str,
        /// Protocol being switched to.
        to: &'static str,
    },
    /// `{"delta": n}` — a signed capacity change (fault or repair).
    Delta(i32),
    /// `{"name": "<prefix><index>"}` — metadata naming payload.
    Name {
        /// Static name prefix (e.g. `"txn-slot-"`).
        prefix: &'static str,
        /// Optional numeric suffix appended to the prefix.
        index: Option<u32>,
    },
}

/// One trace event. Plain `Copy` data: building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event phase (`ph`).
    pub ph: Phase,
    /// Event name.
    pub name: &'static str,
    /// Category for viewer-side filtering.
    pub cat: &'static str,
    /// Timestamp in milliseconds (sim time or runtime epoch offset).
    pub ts_ms: f64,
    /// Duration in milliseconds (only meaningful for [`Phase::Complete`]).
    pub dur_ms: f64,
    /// Process lane (`pid`): [`PID_NODE`] or [`PID_CLIENTS`].
    pub pid: u32,
    /// Thread lane (`tid`): [`TID_CONTROL`], a txn slot, or a client id.
    pub tid: u32,
    /// Flow-chain id (only meaningful for flow phases). Deterministic:
    /// allocated from a caller-owned counter, never from a clock.
    pub id: u64,
    /// Structured payload.
    pub args: Args,
}

impl TraceEvent {
    fn base(ph: Phase, name: &'static str, cat: &'static str, ts_ms: f64) -> Self {
        TraceEvent {
            ph,
            name,
            cat,
            ts_ms,
            dur_ms: 0.0,
            pid: PID_NODE,
            tid: TID_CONTROL,
            id: 0,
            args: Args::None,
        }
    }

    /// A span-begin (`B`) event.
    pub fn begin(name: &'static str, cat: &'static str, ts_ms: f64, pid: u32, tid: u32) -> Self {
        let mut ev = Self::base(Phase::Begin, name, cat, ts_ms);
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// A span-end (`E`) event.
    pub fn end(name: &'static str, cat: &'static str, ts_ms: f64, pid: u32, tid: u32) -> Self {
        let mut ev = Self::base(Phase::End, name, cat, ts_ms);
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// A complete (`X`) event covering `[ts_ms, ts_ms + dur_ms)`.
    pub fn complete(
        name: &'static str,
        cat: &'static str,
        ts_ms: f64,
        dur_ms: f64,
        pid: u32,
        tid: u32,
    ) -> Self {
        let mut ev = Self::base(Phase::Complete, name, cat, ts_ms);
        ev.dur_ms = dur_ms;
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// An instant (`i`) marker.
    pub fn instant(name: &'static str, cat: &'static str, ts_ms: f64, pid: u32, tid: u32) -> Self {
        let mut ev = Self::base(Phase::Mark, name, cat, ts_ms);
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// A counter (`C`) sample on the control-plane lane.
    pub fn counter(name: &'static str, ts_ms: f64, pid: u32, value: f64) -> Self {
        let mut ev = Self::base(Phase::Counter, name, cat::GATE, ts_ms);
        ev.pid = pid;
        ev.args = Args::Value(value);
        ev
    }

    /// A flow-start (`s`) event anchoring chain `id` here.
    pub fn flow_start(
        name: &'static str,
        cat: &'static str,
        id: u64,
        ts_ms: f64,
        pid: u32,
        tid: u32,
    ) -> Self {
        let mut ev = Self::base(Phase::FlowStart, name, cat, ts_ms);
        ev.id = id;
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// A flow-finish (`f`) event closing chain `id` here.
    pub fn flow_end(
        name: &'static str,
        cat: &'static str,
        id: u64,
        ts_ms: f64,
        pid: u32,
        tid: u32,
    ) -> Self {
        let mut ev = Self::base(Phase::FlowEnd, name, cat, ts_ms);
        ev.id = id;
        ev.pid = pid;
        ev.tid = tid;
        ev
    }

    /// Metadata naming a process lane.
    pub fn process_name(pid: u32, prefix: &'static str, index: Option<u32>) -> Self {
        let mut ev = Self::base(Phase::Meta, "process_name", "__metadata", 0.0);
        ev.pid = pid;
        ev.args = Args::Name { prefix, index };
        ev
    }

    /// Metadata naming a thread lane.
    pub fn thread_name(pid: u32, tid: u32, prefix: &'static str, index: Option<u32>) -> Self {
        let mut ev = Self::base(Phase::Meta, "thread_name", "__metadata", 0.0);
        ev.pid = pid;
        ev.tid = tid;
        ev.args = Args::Name { prefix, index };
        ev
    }

    /// Attaches a structured payload.
    pub fn with(mut self, args: Args) -> Self {
        self.args = args;
        self
    }
}

/// Receives trace events. Implementations must tolerate high event
/// rates: the engine calls `emit` from its hot path, so steady-state
/// emission must not allocate.
pub trait TraceSink: Send {
    /// Records one event.
    fn emit(&mut self, ev: &TraceEvent);
}

/// Fans one event stream out to two sinks (e.g. a [`ChromeWriter`] for
/// the file and a [`CountingSink`] for reconciliation).
pub struct Tee<A: TraceSink, B: TraceSink>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.emit(ev);
        self.1.emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_plain_copy_values() {
        let ev = TraceEvent::begin(name::ATTEMPT, cat::TXN, 12.5, PID_NODE, 3)
            .with(Args::Outcome("commit"));
        let copy = ev;
        assert_eq!(copy, ev);
        assert_eq!(copy.ph.code(), 'B');
        assert_eq!(copy.args, Args::Outcome("commit"));
    }

    #[test]
    fn phase_codes_match_chrome() {
        let codes: Vec<char> = [
            Phase::Begin,
            Phase::End,
            Phase::Complete,
            Phase::Mark,
            Phase::Counter,
            Phase::FlowStart,
            Phase::FlowEnd,
            Phase::Meta,
        ]
        .iter()
        .map(|p| p.code())
        .collect();
        assert_eq!(codes, vec!['B', 'E', 'X', 'i', 'C', 's', 'f', 'M']);
    }

    #[test]
    fn tee_duplicates_events() {
        let mut tee = Tee(CountingSink::new(), CountingSink::new());
        tee.emit(&TraceEvent::instant(name::FAULT, cat::FAULT, 1.0, PID_NODE, 0));
        assert_eq!(tee.0.count(Phase::Mark, name::FAULT).total, 1);
        assert_eq!(tee.1.count(Phase::Mark, name::FAULT).total, 1);
    }
}
