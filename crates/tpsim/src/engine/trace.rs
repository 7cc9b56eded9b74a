//! The trace sink and the emission helpers. All are no-ops without an
//! installed sink; none draws randomness or mutates simulation state, so
//! tracing can never perturb a run (the golden CSVs pin that). Which
//! lifecycle spans a slot holds is not decided here: the lifecycle writer
//! passes the stacks of its table to [`Simulator::tr_spans`].

use alc_trace::{cat as tcat, name as tname, Args as TraceArgs, TraceEvent, TraceSink};
use alc_trace::{PID_CLIENTS, PID_NODE, TID_CONTROL};

use super::{station, Simulator, LIFECYCLE};

impl Simulator {
    /// Installs a span/event trace sink. From then on the engine emits
    /// the `alc_trace` event vocabulary: per-transaction lifecycle spans
    /// (the span column of the lifecycle table in the [module doc](super)),
    /// CPU/disk service bursts, gate decisions and MPL/bound counters, CC
    /// switch decide/complete markers, faults, and client
    /// timeout/shed/abandon events with retry chains linked by flow
    /// ids. Everything is stamped with simulated time and ids come from
    /// deterministic counters, so traces are byte-identical across reruns.
    /// Call after [`Simulator::set_clients`] (client lane metadata is
    /// emitted at install time) and before the run. Tracing draws no
    /// randomness and never perturbs the run.
    pub fn set_trace_sink(&mut self, mut sink: Box<dyn TraceSink>) {
        // Name every lane the run can touch: the node's control plane and
        // transaction slots, plus the client population when there is one.
        sink.emit(&TraceEvent::process_name(PID_NODE, "node", Some(0)));
        sink.emit(&TraceEvent::thread_name(
            PID_NODE,
            TID_CONTROL,
            "control",
            None,
        ));
        for i in 0..self.txns.len() as u32 {
            sink.emit(&TraceEvent::thread_name(
                PID_NODE,
                1 + i,
                "txn-slot-",
                Some(i),
            ));
        }
        let population = self.client_population() as u32;
        if population > 0 {
            sink.emit(&TraceEvent::process_name(PID_CLIENTS, "clients", None));
            for c in 0..population {
                sink.emit(&TraceEvent::thread_name(PID_CLIENTS, c, "client-", Some(c)));
            }
        }
        self.trace = Some(sink);
    }

    /// Removes and returns the trace sink, first closing the spans each
    /// slot's state still holds with outcome `"open"` — a taken trace
    /// always has balanced begin/end counts per lane.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        for i in 0..self.txns.len() {
            let (held, ..) = LIFECYCLE[station(self.txns[i].state)];
            self.tr_spans(i, held, &[], "open");
        }
        self.trace.take()
    }

    /// Moves slot `i`'s lane from the span stack `old` to `new` (both
    /// outermost first): ends, innermost first and with outcome `why`,
    /// what `old` holds beyond their common prefix, then begins what
    /// `new` adds.
    pub(super) fn tr_spans(
        &mut self,
        i: usize,
        old: &[&'static str],
        new: &[&'static str],
        why: &'static str,
    ) {
        let ts = self.cal.now().millis();
        let Some(t) = self.trace.as_mut() else { return };
        let tid = 1 + i as u32;
        let kept = old.iter().zip(new).take_while(|(a, b)| a == b).count();
        for &name in old[kept..].iter().rev() {
            let end = TraceEvent::end(name, tcat::TXN, ts, PID_NODE, tid);
            t.emit(&end.with(TraceArgs::Outcome(why)));
        }
        for &name in &new[kept..] {
            t.emit(&TraceEvent::begin(name, tcat::TXN, ts, PID_NODE, tid));
        }
    }

    /// Hands the sink, if there is one, the event `make` builds for the
    /// current time.
    #[inline]
    fn tr(&mut self, make: impl FnOnce(f64) -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(&make(self.cal.now().millis()));
        }
    }

    /// Emits a service burst starting now on slot `i`'s lane.
    #[inline]
    pub(super) fn tr_burst(&mut self, name: &'static str, i: usize, dur_ms: f64) {
        self.tr(|ts| TraceEvent::complete(name, tcat::SVC, ts, dur_ms, PID_NODE, 1 + i as u32));
    }

    /// Emits a control-plane instant marker.
    #[inline]
    pub(super) fn tr_instant(&mut self, name: &'static str, cat: &'static str, args: TraceArgs) {
        self.tr(|ts| TraceEvent::instant(name, cat, ts, PID_NODE, TID_CONTROL).with(args));
    }

    /// Emits an instant on client `c`'s lane.
    #[inline]
    pub(super) fn tr_client_instant(&mut self, name: &'static str, c: usize) {
        self.tr(|ts| TraceEvent::instant(name, tcat::CLIENT, ts, PID_CLIENTS, c as u32));
    }

    /// Emits a control-plane counter sample.
    #[inline]
    pub(super) fn tr_counter(&mut self, name: &'static str, value: f64) {
        self.tr(|ts| TraceEvent::counter(name, ts, PID_NODE, value));
    }

    /// Links a retry chain: the flow id is derived from the client index
    /// and its tombstone generation, both deterministic counters, so the
    /// start (when the retry is scheduled) and the finish (when it
    /// issues) pair up without any stored state.
    #[inline]
    pub(super) fn tr_retry_flow(&mut self, start: bool, c: usize, generation: u64) {
        let link = if start {
            TraceEvent::flow_start
        } else {
            TraceEvent::flow_end
        };
        let id = ((c as u64) << 32) | (generation & 0xffff_ffff);
        self.tr(|ts| link(tname::RETRY, tcat::CLIENT, id, ts, PID_CLIENTS, c as u32));
    }
}
