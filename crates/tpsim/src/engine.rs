//! The event-driven simulation engine (§7, Figure 11).
//!
//! One [`Simulator`] owns the calendar, the transaction slots, the CPU
//! station, the gate, the CC protocol and (optionally) a load controller.
//! Transactions flow:
//!
//! ```text
//! terminal think ──Submit──▶ gate ──admit──▶ run: phase 0 .. k+1
//!        ▲                     │ queue             │ per phase:
//!        │                     ▼                   │ [access] → CPU → disk
//!        └──────── commit ◀── validate ◀───────────┘
//!                     │ fail: abort → restart delay → rerun
//! ```
//!
//! Every `sample_interval_ms` a `Sample` event harvests the interval
//! measurement, lets the controller adjust the gate bound, and records the
//! trajectory points the paper's figures plot.

use alc_core::controller::LoadController;
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::meta::{MetaObservation, MetaPolicy};
use alc_core::sampler::IntervalSampler;
use alc_des::dist::Sample as _;
use alc_des::rng::{RngStream, SeedFactory};
use alc_des::series::TimeSeries;
use alc_des::stats::{TimeWeighted, Welford};
use alc_des::{Calendar, SimTime};
use alc_trace::{cat as tcat, name as tname, Args as TraceArgs, TraceEvent, TraceSink};

use crate::cc::{make_cc, AccessOutcome, ConcurrencyControl};
use crate::client::{ClientConfig, ClientPhase, ClientPool, ClientStats, RetryPolicy};
use crate::config::{ArrivalProcess, CcKind, ControlConfig, SystemConfig};
use crate::gate::SimGate;
use crate::station::{CpuJob, CpuStation};
use crate::txn::{Stage, Txn, TxnState};
use crate::workload::WorkloadConfig;

/// Simulator events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Terminal finished thinking; the transaction arrives at the gate.
    Submit(usize),
    /// An external arrival (open mode): claim a slot and submit.
    Arrival,
    /// A CPU burst completed.
    CpuDone { txn: usize, generation: u64 },
    /// A disk operation completed.
    DiskDone { txn: usize, generation: u64 },
    /// Restart delay elapsed; re-run the transaction.
    RestartBegin { txn: usize, generation: u64 },
    /// Measurement / control tick.
    Sample,
    /// Scheduled CC-protocol switch: start draining, swap when empty.
    CcSwitch { idx: usize },
    /// Scheduled station fault: apply the `idx`-th CPU-capacity delta.
    Fault { idx: usize },
    /// Client mode: client `client` issues an attempt (first attempt when
    /// Thinking, retry when in Backoff). `generation` is the *client's*
    /// tombstone counter, not the transaction slot's.
    ClientIssue { client: usize, generation: u64 },
    /// Client mode: patience expired for the client's in-flight attempt.
    ClientTimeout { client: usize, generation: u64 },
    /// Client mode: hedging delay elapsed; launch the duplicate attempt
    /// if the first one is still in flight.
    HedgeFire { client: usize, generation: u64 },
}

/// Aggregate statistics of a (post-warm-up) run window.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunStats {
    /// Measured window length, ms.
    pub duration_ms: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted runs (restarts + displacements).
    pub aborts: u64,
    /// Commits per second.
    pub throughput_per_sec: f64,
    /// Mean response time (submission → commit), ms.
    pub mean_response_ms: f64,
    /// Time-averaged in-system transaction count (observed MPL).
    pub mean_mpl: f64,
    /// Time-averaged gate bound `n*`.
    pub mean_bound: f64,
    /// Aborted runs / all finished runs.
    pub abort_ratio: f64,
    /// Mean CPU utilization.
    pub cpu_utilization: f64,
    /// Transactions displaced by bound drops (only with displacement on).
    pub displaced: u64,
    /// Mean data conflicts per committed transaction.
    pub conflicts_per_commit: f64,
    /// Open mode only: arrivals rejected because the slot pool was
    /// exhausted (always 0 in the closed model).
    pub lost: u64,
}

/// One completed CC-protocol switch, as recorded in the switch-event
/// trace: scheduled (`cc.phases`) and policy-driven (adaptive) switches
/// both land here. `decided_at_ms` is when the switch was requested
/// (the scheduled time, or the sample at which the meta-policy decided);
/// `completed_at_ms` is when the drain reached in-flight-zero and the
/// protocol actually swapped.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SwitchEvent {
    /// Decision time, ms.
    pub decided_at_ms: f64,
    /// Swap-completion time (end of the drain), ms.
    pub completed_at_ms: f64,
    /// Protocol in force before the swap.
    pub from: CcKind,
    /// Protocol installed by the swap.
    pub to: CcKind,
}

/// The trajectory series the paper's figures plot, sampled once per
/// measurement interval.
#[derive(Debug, Clone)]
pub struct Trajectories {
    /// The controller's bound `n*(t)` (solid line of Figures 13/14).
    pub bound: TimeSeries,
    /// Observed MPL `n(t)`.
    pub observed_mpl: TimeSeries,
    /// Interval throughput, commits/s.
    pub throughput: TimeSeries,
    /// The analytic optimum `n_opt(t)` (broken line of Figures 13/14).
    pub optimum: TimeSeries,
    /// The workload's `k(t)`, for reference.
    pub k: TimeSeries,
    /// Per-interval data conflicts per committed transaction — the raw
    /// material of the derived conflict-ratio columns (e.g. the conflict
    /// ratio at the throughput peak of a load sweep).
    pub conflict_ratio: TimeSeries,
    /// The switch-event trace: every completed CC-protocol switch
    /// (scheduled or policy-driven), in completion order. Empty for
    /// single-protocol runs, so the trajectory CSVs of existing
    /// scenarios stay byte-identical.
    pub switches: Vec<SwitchEvent>,
    /// Client mode only: attempts launched per interval (first attempts
    /// plus retries plus hedges). Empty for runs without a client pool,
    /// so the trajectory CSVs of existing scenarios stay byte-identical.
    pub attempts: TimeSeries,
    /// Client mode only: retry attempts per interval.
    pub retries: TimeSeries,
    /// Client mode only: requests abandoned per interval.
    pub abandons: TimeSeries,
}

impl Default for Trajectories {
    fn default() -> Self {
        Trajectories::new()
    }
}

impl Trajectories {
    /// Creates an empty trajectory set (the engine fills it; tests and
    /// derived-column code may build synthetic ones).
    pub fn new() -> Self {
        Trajectories {
            bound: TimeSeries::new("bound"),
            observed_mpl: TimeSeries::new("observed_mpl"),
            throughput: TimeSeries::new("throughput"),
            optimum: TimeSeries::new("optimum"),
            k: TimeSeries::new("k"),
            conflict_ratio: TimeSeries::new("conflict_ratio"),
            switches: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time; presized via reserve before each run")
            attempts: TimeSeries::new("attempts"),
            retries: TimeSeries::new("retries"),
            abandons: TimeSeries::new("abandons"),
        }
    }

    /// Pre-sizes every series for `additional` further samples.
    fn reserve(&mut self, additional: usize) {
        self.bound.reserve(additional);
        self.observed_mpl.reserve(additional);
        self.throughput.reserve(additional);
        self.optimum.reserve(additional);
        self.k.reserve(additional);
        self.conflict_ratio.reserve(additional);
        self.attempts.reserve(additional);
        self.retries.reserve(additional);
        self.abandons.reserve(additional);
    }
}

/// The engine half of the meta-control loop: the candidate protocols and
/// the `alc_core::meta` policy choosing among them by index.
struct MetaCc {
    candidates: Vec<CcKind>,
    policy: Box<dyn MetaPolicy>,
    /// The candidate index currently in force (tracks `cc_kind`).
    active: usize,
}

struct Streams {
    think: RngStream,
    cpu: RngStream,
    disk: RngStream,
    access: RngStream,
    mix: RngStream,
    restart: RngStream,
    arrival: RngStream,
    /// Client patience draws. Constructed unconditionally (streams are
    /// label-independent, so runs without clients stay byte-identical)
    /// but only drawn from in client mode.
    client_timeout: RngStream,
    /// Backoff-jitter draws (client mode, `RetryPolicy::Backoff` only).
    retry_jitter: RngStream,
}

/// The §7 transaction processing system simulator.
pub struct Simulator {
    sys: SystemConfig,
    workload: WorkloadConfig,
    control: ControlConfig,
    cal: Calendar<Event>,
    txns: Vec<Txn>,
    cc: Box<dyn ConcurrencyControl>,
    cpu: CpuStation,
    gate: SimGate,
    rng: Streams,
    controller: Option<Box<dyn LoadController>>,
    sampler: IntervalSampler,
    ts_counter: u64,
    /// Open mode: transaction slots currently unused (LIFO for cache
    /// friendliness; slot identity carries no semantics in open mode).
    free_slots: Vec<usize>,
    /// Events processed so far (perf accounting; the benchmark ledger
    /// divides by wall time).
    events: u64,
    /// Reusable buffer for access-set draws (cleared per instance).
    access_scratch: Vec<u64>,
    /// The protocol currently in force (start value, then whatever the
    /// last completed [`Simulator::set_cc_switches`] entry installed).
    cc_kind: CcKind,
    /// Scheduled protocol switches `(t_ms, target)`, ascending.
    cc_switches: Vec<(f64, CcKind)>,
    /// A switch is draining: admissions are held at the gate and restarts
    /// parked until the last in-CC transaction commits or aborts, then the
    /// protocol swaps to this target.
    drain_target: Option<CcKind>,
    /// Decision time of the switch currently draining (or of the
    /// just-completed immediate swap) — the `decided_at_ms` of its
    /// switch-event record.
    drain_decided_ms: f64,
    /// Closed-loop protocol selection: candidates, the policy choosing
    /// among them, and the policy's active index.
    meta: Option<MetaCc>,
    /// Transactions currently between `cc.begin` and `cc.commit`/`abort`.
    cc_active: u32,
    /// Restart-delay expiries deferred by an in-progress drain (FIFO).
    parked_restarts: Vec<usize>,
    /// Completed protocol switches (for tests/diagnostics).
    switches_completed: u64,
    /// Scheduled station faults `(t_ms, cpu-count delta)`, ascending.
    fault_deltas: Vec<(f64, i32)>,
    /// Reusable buffer for jobs dispatched by a capacity restore.
    fault_scratch: Vec<CpuJob>,
    /// Pool of reusable id buffers for unblocked/admitted lists. Taken by
    /// the handful of sites that need one; returned cleared. Depth equals
    /// the deepest take nesting (2), so steady state allocates nothing.
    scratch_pool: Vec<Vec<usize>>,
    // Aggregate statistics (reset at end of warm-up).
    commits: u64,
    aborts: u64,
    conflicts: u64,
    displaced: u64,
    lost: u64,
    response: Welford,
    mpl_avg: TimeWeighted,
    bound_avg: TimeWeighted,
    window_start: SimTime,
    trajectories: Trajectories,
    optimum_cache: std::collections::BTreeMap<(u32, u32, u32, u32), u32>,
    record_optimum: bool,
    /// Cached Zipf sampler for the hot-spot extension, keyed by the skew
    /// in force when it was built.
    zipf_cache: Option<(f64, alc_des::dist::Zipf)>,
    /// Optional gate-log recorder mirroring every sampler input and
    /// controller decision, so runs become replayable through
    /// `alc-runtime` (see `alc_core::gatelog`). `None` costs nothing.
    gate_log: Option<Box<dyn GateLogSink>>,
    /// Optional span/event trace sink (see `alc_trace`): per-transaction
    /// lifecycle spans, service bursts, control decisions, CC switches,
    /// faults and client events, stamped with simulated time. `None`
    /// costs nothing and keeps runs byte-identical to untraced ones.
    trace: Option<Box<dyn TraceSink>>,
    /// Closed-loop client pool (`None` = the paper's patient terminals).
    /// Installed once by [`Simulator::set_clients`] before the run.
    clients: Option<ClientPool>,
    /// Cumulative client counters at the previous sample, for the
    /// per-interval deltas the client trajectory series record.
    last_attempts: u64,
    last_retries: u64,
    last_abandoned: u64,
}

impl Simulator {
    /// Builds a simulator. `controller = None` runs with the static
    /// `control.initial_bound` (use `u32::MAX` for "no control").
    pub fn new(
        sys: SystemConfig,
        workload: WorkloadConfig,
        cc_kind: CcKind,
        control: ControlConfig,
        controller: Option<Box<dyn LoadController>>,
    ) -> Self {
        assert!(sys.terminals > 0, "a closed model needs terminals");
        let seeds = SeedFactory::new(sys.seed);
        let t0 = SimTime::ZERO;
        let initial_bound = controller
            .as_ref()
            .map_or(control.initial_bound, |c| c.current_bound());
        let slots = sys.terminals as usize;
        let mut sim = Simulator {
            // Every slot has at most one in-flight event plus a Sample and
            // an Arrival; capacity beyond that only ever holds tombstones.
            cal: Calendar::with_capacity(2 * slots + 8),
            txns: (0..sys.terminals).map(|_| Txn::new()).collect(), // alc-lint: allow(hot-alloc, reason="construction-time slot allocation")
            cc: make_cc(cc_kind, slots, sys.db_size as usize),
            cc_kind,
            cc_switches: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time; filled once by set_cc_switches before the run")
            drain_target: None,
            drain_decided_ms: 0.0,
            meta: None,
            cc_active: 0,
            parked_restarts: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across drains")
            switches_completed: 0,
            fault_deltas: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time; filled once by set_faults before the run")
            fault_scratch: Vec::new(), // alc-lint: allow(hot-alloc, reason="construction-time scratch; retains capacity across faults")
            cpu: CpuStation::with_queue_capacity(sys.cpus, t0, slots),
            gate: SimGate::with_queue_capacity(initial_bound, slots),
            rng: Streams {
                think: seeds.stream("think"),
                cpu: seeds.stream("cpu"),
                disk: seeds.stream("disk"),
                access: seeds.stream("access"),
                mix: seeds.stream("mix"),
                restart: seeds.stream("restart"),
                arrival: seeds.stream("arrival"),
                client_timeout: seeds.stream("client_timeout"),
                retry_jitter: seeds.stream("retry_jitter"),
            },
            controller,
            sampler: IntervalSampler::new(control.indicator, 0.0, 0),
            ts_counter: 0,
            free_slots: Vec::with_capacity(slots),
            events: 0,
            access_scratch: Vec::with_capacity(16),
            scratch_pool: Vec::with_capacity(4),
            commits: 0,
            aborts: 0,
            conflicts: 0,
            displaced: 0,
            lost: 0,
            response: Welford::new(),
            mpl_avg: TimeWeighted::new(t0, 0.0),
            bound_avg: TimeWeighted::new(t0, f64::from(initial_bound).min(1e9)),
            window_start: t0,
            trajectories: Trajectories::new(),
            optimum_cache: std::collections::BTreeMap::new(),
            record_optimum: true,
            zipf_cache: None,
            gate_log: None,
            trace: None,
            clients: None,
            last_attempts: 0,
            last_retries: 0,
            last_abandoned: 0,
            sys,
            workload,
            control,
        };
        match sim.sys.arrival {
            ArrivalProcess::Closed => {
                // Terminals start thinking; their first submissions
                // stagger naturally through the think-time distribution.
                let factor = sim.workload.think_time_factor_at(t0.millis());
                for i in 0..sim.sys.terminals as usize {
                    let delay = sim.sys.think.sample(&mut sim.rng.think) * factor;
                    sim.cal.schedule(t0 + delay, Event::Submit(i));
                }
            }
            ArrivalProcess::Open { interarrival } => {
                sim.free_slots = (0..sim.sys.terminals as usize).rev().collect(); // alc-lint: allow(hot-alloc, reason="one-time init of the free-slot stack at simulation start")
                let delay = interarrival.sample(&mut sim.rng.arrival)
                    / sim.workload.arrival_rate_factor_at(t0.millis());
                sim.cal.schedule(t0 + delay, Event::Arrival);
            }
        }
        sim.cal
            .schedule(t0 + sim.control.sample_interval_ms, Event::Sample);
        sim
    }

    /// Disables the (potentially costly) analytic-optimum trajectory.
    pub fn set_record_optimum(&mut self, on: bool) {
        self.record_optimum = on;
    }

    /// Installs a gate-log sink. From then on every sampler input (MPL
    /// change, commit, abort) and every controller decision is mirrored
    /// into the sink as a [`GateEvent`], making the run replayable: the
    /// recorded stream fed through an identically built sampler +
    /// controller reproduces the decision sequence bit-for-bit. Call
    /// before running; recording does not perturb the simulation.
    pub fn set_gate_log(&mut self, sink: Box<dyn GateLogSink>) {
        self.gate_log = Some(sink);
    }

    /// Removes and returns the installed gate-log sink (typically after
    /// the run, to extract the recorded events).
    pub fn take_gate_log(&mut self) -> Option<Box<dyn GateLogSink>> {
        self.gate_log.take()
    }

    /// Installs a span/event trace sink. From then on the engine emits
    /// the `alc_trace` event vocabulary: per-transaction lifecycle spans
    /// (gate wait, admitted attempt, execution runs, lock blocks,
    /// restart waits), CPU/disk service bursts, gate decisions and
    /// MPL/bound counters, CC switch decide/complete markers, faults,
    /// and client timeout/shed/abandon/hedge events with retry chains
    /// linked by flow ids. Everything is stamped with simulated time
    /// and ids come from deterministic counters, so traces are
    /// byte-identical across reruns. Call after [`Simulator::set_clients`]
    /// (client lane metadata is emitted at install time) and before the
    /// run. Tracing draws no randomness and never perturbs the run.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
        self.trace_metadata();
    }

    /// Removes and returns the trace sink, first closing every span
    /// still open at the current time with outcome `"open"` — a taken
    /// trace always has balanced begin/end counts per lane.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace_close_open_spans();
        self.trace.take()
    }

    /// Emits process/thread naming metadata for every lane the run can
    /// touch: the node's control plane and transaction slots, plus the
    /// client population when one is installed.
    fn trace_metadata(&mut self) {
        let n_slots = self.txns.len();
        let population = self.client_population();
        let Some(t) = self.trace.as_mut() else { return };
        t.emit(&TraceEvent::process_name(alc_trace::PID_NODE, "node", Some(0)));
        t.emit(&TraceEvent::thread_name(
            alc_trace::PID_NODE,
            alc_trace::TID_CONTROL,
            "control",
            None,
        ));
        for i in 0..n_slots {
            t.emit(&TraceEvent::thread_name(
                alc_trace::PID_NODE,
                1 + i as u32,
                "txn-slot-",
                Some(i as u32),
            ));
        }
        if population > 0 {
            t.emit(&TraceEvent::process_name(alc_trace::PID_CLIENTS, "clients", None));
            for c in 0..population {
                t.emit(&TraceEvent::thread_name(
                    alc_trace::PID_CLIENTS,
                    c as u32,
                    "client-",
                    Some(c as u32),
                ));
            }
        }
    }

    /// Closes the spans of every slot not at its terminal (Thinking)
    /// state, so a trace taken mid-flight still balances.
    fn trace_close_open_spans(&mut self) {
        if self.trace.is_none() {
            return;
        }
        for i in 0..self.txns.len() {
            match self.txns[i].state {
                TxnState::Thinking => {}
                TxnState::Queued => self.tr_end(tname::WAIT, i, "open"),
                TxnState::Running { .. } => {
                    self.tr_end(tname::RUN, i, "open");
                    self.tr_end(tname::ATTEMPT, i, "open");
                }
                TxnState::Blocked { .. } => {
                    self.tr_end(tname::BLOCKED, i, "open");
                    self.tr_end(tname::RUN, i, "open");
                    self.tr_end(tname::ATTEMPT, i, "open");
                }
                TxnState::RestartWait => {
                    self.tr_end(tname::RESTART_WAIT, i, "open");
                    self.tr_end(tname::ATTEMPT, i, "open");
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Trace emission helpers. All are no-ops without an installed sink;
    // none draws randomness or mutates simulation state, so tracing can
    // never perturb a run (the golden CSVs pin that).
    // ------------------------------------------------------------------

    /// Opens span `name` on transaction slot `i`'s lane.
    #[inline]
    fn tr_begin(&mut self, name: &'static str, i: usize) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(&TraceEvent::begin(
                name,
                tcat::TXN,
                ts,
                alc_trace::PID_NODE,
                1 + i as u32,
            ));
        }
    }

    /// Closes span `name` on slot `i`'s lane with `outcome`.
    #[inline]
    fn tr_end(&mut self, name: &'static str, i: usize, outcome: &'static str) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(
                &TraceEvent::end(name, tcat::TXN, ts, alc_trace::PID_NODE, 1 + i as u32)
                    .with(TraceArgs::Outcome(outcome)),
            );
        }
    }

    /// Emits a service burst starting now on slot `i`'s lane.
    #[inline]
    fn tr_burst(&mut self, name: &'static str, i: usize, dur_ms: f64) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(&TraceEvent::complete(
                name,
                tcat::SVC,
                ts,
                dur_ms,
                alc_trace::PID_NODE,
                1 + i as u32,
            ));
        }
    }

    /// Emits a control-plane instant marker.
    #[inline]
    fn tr_instant(&mut self, name: &'static str, cat: &'static str, args: TraceArgs) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(
                &TraceEvent::instant(name, cat, ts, alc_trace::PID_NODE, alc_trace::TID_CONTROL)
                    .with(args),
            );
        }
    }

    /// Emits an instant on client `c`'s lane.
    #[inline]
    fn tr_client_instant(&mut self, name: &'static str, c: usize) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(&TraceEvent::instant(
                name,
                tcat::CLIENT,
                ts,
                alc_trace::PID_CLIENTS,
                c as u32,
            ));
        }
    }

    /// Emits a control-plane counter sample.
    #[inline]
    fn tr_counter(&mut self, name: &'static str, value: f64) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            t.emit(&TraceEvent::counter(name, ts, alc_trace::PID_NODE, value));
        }
    }

    /// Links a retry chain: the flow id is derived from the client index
    /// and its tombstone generation, both deterministic counters, so the
    /// start (when the retry is scheduled) and the finish (when it
    /// issues) pair up without any stored state.
    #[inline]
    fn tr_retry_flow(&mut self, start: bool, c: usize, generation: u64) {
        let ts = self.cal.now().millis();
        if let Some(t) = self.trace.as_mut() {
            let id = ((c as u64) << 32) | (generation & 0xffff_ffff);
            let ev = if start {
                TraceEvent::flow_start(tname::RETRY, tcat::CLIENT, id, ts, alc_trace::PID_CLIENTS, c as u32)
            } else {
                TraceEvent::flow_end(tname::RETRY, tcat::CLIENT, id, ts, alc_trace::PID_CLIENTS, c as u32)
            };
            t.emit(&ev);
        }
    }

    /// A queued slot was admitted: close its wait span and open the
    /// attempt span. Shared by every gate-departure admission loop.
    #[inline]
    fn tr_admitted_from_queue(&mut self, a: usize) {
        self.tr_end(tname::WAIT, a, "admit");
        self.tr_begin(tname::ATTEMPT, a);
    }

    /// Installs a closed-loop client pool: impatient clients replace the
    /// paper's patient terminals. Each client owns one transaction slot
    /// (hedged pools own two — primary and duplicate), cycles through
    /// think → issue → wait, and on timeout cancels its in-flight
    /// attempt and consults its retry policy. Timeouts and shed retries
    /// feed the sampler (and the gate log) as aborts, so retry-aware
    /// control laws observe the storm they must clamp. Call once, before
    /// the run, in closed mode only.
    pub fn set_clients(&mut self, cfg: ClientConfig) {
        assert!(
            matches!(self.sys.arrival, ArrivalProcess::Closed),
            "client pools model closed-loop terminals; open mode has no clients"
        );
        assert!(cfg.population >= 1, "a client pool needs at least one client");
        assert!(self.clients.is_none(), "set_clients may only be called once");
        let slots_needed = match cfg.retry {
            RetryPolicy::Hedged { .. } => 2 * cfg.population as usize,
            _ => cfg.population as usize,
        };
        assert!(
            slots_needed <= self.txns.len(),
            "client population (with hedge duplicates) must fit the terminal count"
        );
        // The constructor's per-terminal Submit events are inert in
        // client mode (see `on_submit`); each client draws its own first
        // think delay instead.
        let t0 = self.now();
        let factor = self.workload.think_time_factor_at(t0.millis());
        for c in 0..cfg.population as usize {
            let delay = self.sys.think.sample(&mut self.rng.think) * factor;
            self.cal.schedule(
                t0 + delay,
                Event::ClientIssue {
                    client: c,
                    generation: 0,
                },
            );
        }
        self.clients = Some(ClientPool::new(cfg));
    }

    /// Client-pool counters of the current statistics window (`None`
    /// for runs without a client pool).
    pub fn client_stats(&self) -> Option<ClientStats> {
        self.clients.as_ref().map(|p| p.stats)
    }

    /// Schedules per-phase CC-protocol switches: at each `t_ms` the gate
    /// holds new admissions, in-flight transactions drain (commit or
    /// abort under the old protocol), the protocol swaps, and held work
    /// resumes. Times must be ascending and ≥ the current time. Call
    /// before running; an empty slice is a no-op (the fault-free and
    /// switch-free paths are byte-identical to a plain run).
    pub fn set_cc_switches(&mut self, switches: &[(f64, CcKind)]) {
        assert!(
            self.meta.is_none(),
            "adaptive CC and scheduled cc switches are mutually exclusive"
        );
        let mut last = self.now().millis();
        for &(at, _) in switches {
            assert!(at >= last, "cc switch times must be ascending");
            last = at;
        }
        self.cc_switches = switches.to_vec(); // alc-lint: allow(hot-alloc, reason="setup API, called once before the run starts")
        for (idx, &(at, _)) in self.cc_switches.iter().enumerate() {
            self.cal.schedule(SimTime::new(at), Event::CcSwitch { idx });
        }
    }

    /// Schedules station fault events: at each `t_ms` the installed CPU
    /// count changes by `delta` (negative = kill, positive = restart),
    /// clamped at 0. Killed servers finish their current bursts; restored
    /// servers immediately pick up queued work. Times must be ascending.
    pub fn set_faults(&mut self, deltas: &[(f64, i32)]) {
        let mut last = self.now().millis();
        for &(at, _) in deltas {
            assert!(at >= last, "fault times must be ascending");
            last = at;
        }
        self.fault_deltas = deltas.to_vec(); // alc-lint: allow(hot-alloc, reason="setup API, called once before the run starts")
        for (idx, &(at, _)) in self.fault_deltas.iter().enumerate() {
            self.cal.schedule(SimTime::new(at), Event::Fault { idx });
        }
    }

    /// Enables closed-loop protocol selection: at every measurement
    /// interval the policy sees the interval's conflict state (conflict
    /// ratio, restart rate, gate queue depth) and may pick another
    /// candidate; the engine then performs the same drain-and-swap a
    /// scheduled `set_cc_switches` entry would, so a policy decision is
    /// exactly as safe as a scheduled phase switch. `candidates[0]` must
    /// be the protocol the simulator was constructed with, and adaptive
    /// selection is mutually exclusive with scheduled switches. Call
    /// before running.
    pub fn set_adaptive_cc(&mut self, candidates: Vec<CcKind>, policy: Box<dyn MetaPolicy>) {
        assert!(
            self.cc_switches.is_empty(),
            "adaptive CC and scheduled cc switches are mutually exclusive"
        );
        assert!(
            candidates.len() >= 2,
            "adaptive CC needs at least two candidates"
        );
        assert_eq!(
            candidates.len(),
            policy.candidate_count(),
            "policy candidate count must match the candidate list"
        );
        assert_eq!(
            candidates[0], self.cc_kind,
            "candidates[0] must be the initial protocol"
        );
        self.meta = Some(MetaCc {
            candidates,
            policy,
            active: 0,
        });
    }

    /// The CC protocol currently in force.
    pub fn current_cc(&self) -> CcKind {
        self.cc_kind
    }

    /// Completed protocol switches so far.
    pub fn cc_switches_completed(&self) -> u64 {
        self.switches_completed
    }

    /// Transactions currently inside the CC protocol (between `begin`
    /// and commit/abort) — 0 at every completed switch boundary.
    pub fn cc_in_flight(&self) -> u32 {
        self.cc_active
    }

    /// CPU servers currently installed (varies under fault events).
    pub fn cpu_servers(&self) -> u32 {
        self.cpu.servers()
    }

    /// Census of transaction-slot states
    /// `[thinking, queued, running, blocked, restart-wait]` — the
    /// conservation oracle for the switch/fault invariant tests (the sum
    /// is always the slot count; nothing is lost or double-counted).
    pub fn txn_state_census(&self) -> [usize; 5] {
        let mut census = [0usize; 5];
        for t in &self.txns {
            let i = match t.state {
                TxnState::Thinking => 0,
                TxnState::Queued => 1,
                TxnState::Running { .. } => 2,
                TxnState::Blocked { .. } => 3,
                TxnState::RestartWait => 4,
            };
            census[i] += 1;
        }
        census
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
    }

    /// The gate (bound, population, queue length).
    pub fn gate(&self) -> &SimGate {
        &self.gate
    }

    /// The recorded trajectories.
    pub fn trajectories(&self) -> &Trajectories {
        &self.trajectories
    }

    /// Events processed since construction — the numerator of every
    /// events-per-second figure in the benchmark ledger.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Runs until `until_ms`, then returns the statistics of the window
    /// since the last [`Simulator::reset_window`] (or construction).
    pub fn run_until(&mut self, until_ms: f64) -> RunStats {
        let t_end = SimTime::new(until_ms);
        // Size the trajectory buffers for the whole stretch up front so
        // sampling never grows them mid-run.
        if self.control.sample_interval_ms > 0.0 {
            let horizon = (until_ms - self.now().millis()).max(0.0);
            let samples = (horizon / self.control.sample_interval_ms) as usize + 2;
            self.trajectories.reserve(samples);
        }
        while let Some((_, ev)) = self.cal.pop_until(t_end) {
            self.events += 1;
            self.handle(ev);
            // Drain completion runs at the top level (never from inside a
            // commit/abort handler) so the swap can safely restart work.
            if self.drain_target.is_some() && self.cc_active == 0 {
                let target = self.drain_target.take().expect("checked above");
                self.complete_cc_switch(target);
            }
        }
        self.stats_at(t_end)
    }

    /// Convenience: runs `warmup_ms` (from the control config), resets the
    /// statistics window, then runs to `horizon_ms` and reports.
    pub fn run(&mut self, horizon_ms: f64) -> RunStats {
        let warmup = self.control.warmup_ms.min(horizon_ms);
        if warmup > 0.0 {
            self.run_until(warmup);
            self.reset_window();
        }
        self.run_until(horizon_ms)
    }

    /// Restarts the aggregate-statistics window (end of warm-up).
    pub fn reset_window(&mut self) {
        let now = self.now();
        self.commits = 0;
        self.aborts = 0;
        self.conflicts = 0;
        self.displaced = 0;
        self.lost = 0;
        self.response = Welford::new();
        self.mpl_avg.reset(now);
        self.bound_avg.reset(now);
        self.cpu.reset_stats(now);
        self.window_start = now;
        if let Some(pool) = &mut self.clients {
            // Re-base the client counters so the conservation identities
            // (`issued == committed + abandoned + in_flight`,
            // `attempts == first_attempts + retries`) keep holding over
            // the fresh window: outstanding requests count as issued.
            let s = &mut pool.stats;
            s.issued = s.in_flight;
            s.first_attempts = 0;
            s.attempts = 0;
            s.retries = 0;
            s.committed = 0;
            s.abandoned = 0;
            s.timeouts = 0;
            s.shed = 0;
        }
        self.last_attempts = 0;
        self.last_retries = 0;
        self.last_abandoned = 0;
    }

    fn stats_at(&self, t_end: SimTime) -> RunStats {
        let duration = (t_end - self.window_start).max(f64::EPSILON);
        let finished = self.commits + self.aborts;
        RunStats {
            duration_ms: duration,
            commits: self.commits,
            aborts: self.aborts,
            throughput_per_sec: self.commits as f64 * 1000.0 / duration,
            mean_response_ms: self.response.mean(),
            mean_mpl: self.mpl_avg.average(t_end),
            mean_bound: self.bound_avg.average(t_end),
            abort_ratio: if finished == 0 {
                0.0
            } else {
                self.aborts as f64 / finished as f64
            },
            cpu_utilization: self.cpu.mean_utilization(t_end),
            displaced: self.displaced,
            conflicts_per_commit: if self.commits == 0 {
                0.0
            } else {
                self.conflicts as f64 / self.commits as f64
            },
            lost: self.lost,
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Borrows a pooled id buffer (cleared). Return with
    /// [`Simulator::put_scratch`] so its capacity is reused — after
    /// warm-up no call site touches the allocator.
    fn take_scratch(&mut self) -> Vec<usize> {
        self.scratch_pool.pop().unwrap_or_default()
    }

    fn put_scratch(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.scratch_pool.push(buf);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Submit(i) => self.on_submit(i),
            Event::Arrival => self.on_arrival(),
            Event::CpuDone { txn, generation } => self.on_cpu_done(txn, generation),
            Event::DiskDone { txn, generation } => self.on_disk_done(txn, generation),
            Event::RestartBegin { txn, generation } => self.on_restart(txn, generation),
            Event::Sample => self.on_sample(),
            Event::CcSwitch { idx } => self.on_cc_switch(idx),
            Event::Fault { idx } => self.on_fault(idx),
            Event::ClientIssue { client, generation } => self.on_client_issue(client, generation),
            Event::ClientTimeout { client, generation } => {
                self.on_client_timeout(client, generation)
            }
            Event::HedgeFire { client, generation } => self.on_hedge_fire(client, generation),
        }
    }

    /// A scheduled protocol switch fires: swap immediately if nothing is
    /// inside the CC layer, otherwise hold admissions and drain. A switch
    /// firing while an earlier one still drains retargets the drain
    /// (last switch wins).
    fn on_cc_switch(&mut self, idx: usize) {
        let target = self.cc_switches[idx].1;
        self.begin_cc_switch(target);
    }

    /// Starts a protocol switch (scheduled or policy-driven): immediate
    /// swap when nothing is inside the CC layer, drain otherwise.
    fn begin_cc_switch(&mut self, target: CcKind) {
        self.tr_instant(
            tname::CC_DECIDE,
            tcat::CC,
            TraceArgs::Switch {
                from: self.cc_kind.name(),
                to: target.name(),
            },
        );
        self.drain_decided_ms = self.now().millis();
        if self.cc_active == 0 && self.drain_target.is_none() {
            self.complete_cc_switch(target);
        } else {
            self.drain_target = Some(target);
            self.gate.set_hold();
        }
    }

    /// The system is empty of in-CC transactions: install the target
    /// protocol (fresh state — nothing carries over by construction) and
    /// resume the held work in arrival order.
    fn complete_cc_switch(&mut self, target: CcKind) {
        let completed_at = self.now().millis();
        self.trajectories.switches.push(SwitchEvent {
            decided_at_ms: self.drain_decided_ms,
            completed_at_ms: completed_at,
            from: self.cc_kind,
            to: target,
        });
        self.tr_instant(
            tname::CC_COMPLETE,
            tcat::CC,
            TraceArgs::Switch {
                from: self.cc_kind.name(),
                to: target.name(),
            },
        );
        // Re-anchor the policy's dwell/cooldown guards at the *swap*: a
        // drain can outlast a cooldown measured from the decision, and
        // the samples right after the swap measure the drain dip, not
        // the workload.
        if let Some(meta) = &mut self.meta {
            meta.policy.note_swap_complete(completed_at);
        }
        self.cc = make_cc(target, self.txns.len(), self.sys.db_size as usize);
        self.cc_kind = target;
        self.switches_completed += 1;
        // Parked restarts first: they kept their MPL slot through the
        // drain, so they re-enter execution before any new admission.
        // A parked transaction may have been *displaced* while waiting
        // (displacement victims include `RestartWait` slots): it is in
        // the gate queue now and will re-enter through the release
        // below — restarting it here too would double-start the slot.
        let mut parked = std::mem::take(&mut self.parked_restarts);
        for &i in &parked {
            if self.txns[i].state == TxnState::RestartWait {
                self.restart_now(i);
            }
        }
        parked.clear();
        self.parked_restarts = parked;
        let mut admitted = self.take_scratch();
        self.gate.release_hold_into(&mut admitted);
        for &a in &admitted {
            self.txns[a].state = TxnState::Thinking; // transient
            self.tr_admitted_from_queue(a);
            self.note_mpl();
            self.start_instance(a);
        }
        self.put_scratch(admitted);
        debug_assert_eq!(
            self.cc_active as usize,
            self.txns
                .iter()
                .filter(|t| {
                    matches!(t.state, TxnState::Running { .. } | TxnState::Blocked { .. })
                })
                .count(),
            "cc_active diverged from the running/blocked census after a switch"
        );
    }

    /// A scheduled station fault fires: apply the CPU-capacity delta and
    /// schedule completions for any queued jobs a restore dispatched.
    fn on_fault(&mut self, idx: usize) {
        let delta = self.fault_deltas[idx].1;
        self.tr_instant(tname::FAULT, tcat::FAULT, TraceArgs::Delta(delta));
        let target = (i64::from(self.cpu.servers()) + i64::from(delta)).max(0) as u32;
        let now = self.now();
        let mut started = std::mem::take(&mut self.fault_scratch);
        let txns = &self.txns;
        self.cpu.set_servers_into(
            now,
            target,
            |j| j.generation != txns[j.txn].generation,
            &mut started,
        );
        for job in started.drain(..) {
            self.tr_burst(tname::CPU, job.txn, job.burst_ms);
            self.cal.schedule_in(
                job.burst_ms,
                Event::CpuDone {
                    txn: job.txn,
                    generation: job.generation,
                },
            );
        }
        self.fault_scratch = started;
    }

    /// Open mode: claim a free slot for the arriving transaction (or
    /// count it lost) and schedule the next arrival.
    fn on_arrival(&mut self) {
        let ArrivalProcess::Open { interarrival } = self.sys.arrival else {
            debug_assert!(false, "Arrival event in closed mode");
            return;
        };
        match self.free_slots.pop() {
            Some(i) => self.on_submit(i),
            None => self.lost += 1,
        }
        // The workload's arrival-rate factor modulates the offered load:
        // dividing the delay by a(t) multiplies the instantaneous rate.
        let delay = interarrival.sample(&mut self.rng.arrival)
            / self.workload.arrival_rate_factor_at(self.now().millis());
        self.cal.schedule_in(delay, Event::Arrival);
    }

    fn on_submit(&mut self, i: usize) {
        if self.clients.is_some() {
            // Client mode: the constructor's terminal Submit events are
            // inert — clients drive their slots via ClientIssue instead.
            return;
        }
        self.submit_attempt(i);
    }

    /// One slot arrives at the gate: admitted immediately or queued.
    /// Shared by terminal submissions and client attempts.
    fn submit_attempt(&mut self, i: usize) {
        let now = self.now();
        debug_assert_eq!(self.txns[i].state, TxnState::Thinking);
        self.txns[i].submitted_at = now;
        if self.gate.arrive(i) {
            self.tr_begin(tname::ATTEMPT, i);
            self.note_mpl();
            self.start_instance(i);
        } else {
            self.txns[i].state = TxnState::Queued;
            self.tr_begin(tname::WAIT, i);
        }
    }

    /// Admission: draw a fresh instance (access set, mix) from the
    /// workload schedules at the current time and start running. The
    /// slot's `items` buffer is refilled in place, so a warmed-up run
    /// creates instances without touching the allocator.
    fn start_instance(&mut self, i: usize) {
        let now = self.now();
        let w = self.workload.at(now.millis());
        let is_query = self.rng.mix.chance(w.query_frac);
        self.draw_access_set(w.k as usize, w.access_skew);
        self.txns[i].items.clear();
        for idx in 0..self.access_scratch.len() {
            let item = self.access_scratch[idx];
            let write = !is_query && self.rng.mix.chance(w.write_frac);
            self.txns[i].items.push((item, write));
        }
        self.txns[i].is_query = is_query;
        self.txns[i].restarts = 0;
        self.begin_run(i);
    }

    /// Draws `k` distinct items into `self.access_scratch`: uniformly for
    /// `skew = 0` (the paper's "no hot spots"), Zipf-skewed otherwise
    /// (hot-spot extension; the paper's uniform model is the `skew = 0`
    /// special case). Duplicate checks scan the scratch directly — `k` is
    /// small, so that beats a hash set and keeps the draw allocation-free.
    fn draw_access_set(&mut self, k: usize, skew: f64) {
        if skew <= 0.0 {
            self.rng
                .access
                .distinct_below_into(self.sys.db_size, k, &mut self.access_scratch);
            return;
        }
        let rebuild = match &self.zipf_cache {
            Some((theta, _)) => (theta - skew).abs() > 1e-12,
            None => true,
        };
        if rebuild {
            self.zipf_cache = Some((skew, alc_des::dist::Zipf::new(self.sys.db_size, skew)));
        }
        let zipf = &self.zipf_cache.as_ref().expect("just built").1;
        let out = &mut self.access_scratch;
        out.clear();
        // Rejection on duplicates; under extreme skew fall back to filling
        // with the coldest untouched items so the draw always terminates.
        let mut attempts = 0;
        while out.len() < k && attempts < 64 * k {
            let item = zipf.sample(&mut self.rng.access);
            attempts += 1;
            if !out.contains(&item) {
                out.push(item);
            }
        }
        let mut fill = self.sys.db_size;
        while out.len() < k {
            fill -= 1;
            if !out.contains(&fill) {
                out.push(fill);
            }
        }
    }

    /// (Re)starts execution of the current instance from phase 0.
    fn begin_run(&mut self, i: usize) {
        let now = self.now();
        self.ts_counter += 1;
        let ts = self.ts_counter;
        {
            let txn = &mut self.txns[i];
            txn.generation += 1;
            txn.ts = ts;
            txn.run_started_at = now;
            txn.state = TxnState::Running {
                phase: 0,
                stage: Stage::Cpu,
            };
        }
        self.cc.begin(i, ts);
        self.cc_active += 1;
        self.tr_begin(tname::RUN, i);
        self.request_cpu(i);
    }

    fn request_cpu(&mut self, i: usize) {
        let now = self.now();
        let burst = self.sys.cpu_phase.sample(&mut self.rng.cpu);
        let job = CpuJob {
            txn: i,
            generation: self.txns[i].generation,
            burst_ms: burst,
        };
        if let Some(job) = self.cpu.offer(now, job) {
            self.tr_burst(tname::CPU, job.txn, job.burst_ms);
            self.cal.schedule_in(
                job.burst_ms,
                Event::CpuDone {
                    txn: job.txn,
                    generation: job.generation,
                },
            );
        }
    }

    fn on_cpu_done(&mut self, i: usize, generation: u64) {
        let now = self.now();
        // The server frees regardless of whether the run is still alive;
        // dispatch the next live job.
        let txns = &self.txns;
        if let Some(job) = self
            .cpu
            .complete(now, |j| j.generation != txns[j.txn].generation)
        {
            self.tr_burst(tname::CPU, job.txn, job.burst_ms);
            self.cal.schedule_in(
                job.burst_ms,
                Event::CpuDone {
                    txn: job.txn,
                    generation: job.generation,
                },
            );
        }
        if self.txns[i].generation != generation {
            return; // burst belonged to an aborted run
        }
        // CPU half done → disk half. Access phases hit (mostly cached)
        // data pages; init/commit phases pay the fixed I/O (catalog, log).
        if let TxnState::Running { phase, .. } = self.txns[i].state {
            self.txns[i].state = TxnState::Running {
                phase,
                stage: Stage::Disk,
            };
            let k = self.txns[i].k();
            let d = if phase >= 1 && phase <= k {
                self.sys.disk_access.sample(&mut self.rng.disk)
            } else {
                self.sys.disk_init_commit.sample(&mut self.rng.disk)
            };
            self.tr_burst(tname::DISK, i, d);
            self.cal.schedule_in(d, Event::DiskDone { txn: i, generation });
        } else {
            debug_assert!(false, "CpuDone for a non-running transaction");
        }
    }

    fn on_disk_done(&mut self, i: usize, generation: u64) {
        if self.txns[i].generation != generation {
            return;
        }
        let TxnState::Running { phase, .. } = self.txns[i].state else {
            debug_assert!(false, "DiskDone for a non-running transaction");
            return;
        };
        let k = self.txns[i].k();
        if phase == k + 1 {
            self.finalize_commit(i);
        } else {
            self.enter_phase(i, phase + 1);
        }
    }

    /// Starts phase `phase` (1..=k: access + CPU + disk; k+1: commit
    /// processing CPU + disk).
    fn enter_phase(&mut self, i: usize, phase: u32) {
        let k = self.txns[i].k();
        self.txns[i].state = TxnState::Running {
            phase,
            stage: Stage::Cpu,
        };
        if phase >= 1 && phase <= k {
            let (item, write) = self.txns[i].items[(phase - 1) as usize];
            match self.cc.access(i, item, write) {
                AccessOutcome::Granted => self.request_cpu(i),
                AccessOutcome::Blocked => {
                    self.txns[i].state = TxnState::Blocked { phase };
                    self.tr_begin(tname::BLOCKED, i);
                    // Drain the protocol's victims: a detector breaks one
                    // cycle per call, wound-wait preempts younger blockers
                    // one at a time, wait-die kills the requester itself.
                    let mut guard = 0usize;
                    while let Some(victim) = self.cc.deadlock_victim(i) {
                        self.abort_run(victim, RestartMode::Delayed);
                        if victim == i {
                            break; // the requester itself died
                        }
                        guard += 1;
                        debug_assert!(
                            guard <= self.txns.len(),
                            "deadlock-victim loop did not converge"
                        );
                    }
                }
                AccessOutcome::Abort => {
                    self.abort_run(i, RestartMode::Delayed);
                }
            }
        } else {
            // Phase 0 (init) and phase k+1 (commit processing): no access.
            self.request_cpu(i);
        }
    }

    fn finalize_commit(&mut self, i: usize) {
        let now = self.now();
        let v = self.cc.validate(i);
        if v.ok {
            let mut unblocked = self.take_scratch();
            self.cc.commit_into(i, &mut unblocked);
            debug_assert!(self.cc_active > 0, "commit without an in-CC txn");
            self.cc_active -= 1;
            self.conflicts += v.conflicts;
            self.sampler.on_conflicts(v.conflicts);
            let response = now - self.txns[i].submitted_at;
            self.sampler.on_commit(response);
            if let Some(log) = self.gate_log.as_mut() {
                log.record(&GateEvent::Commit {
                    at_ms: now.millis(),
                    response_ms: response,
                    conflicts: v.conflicts,
                });
            }
            self.response.push(response);
            self.commits += 1;
            self.tr_end(tname::RUN, i, "commit");
            self.tr_end(tname::ATTEMPT, i, "commit");
            // Departure: back to the terminal (closed) or out of the
            // system, returning the slot (open). In client mode the
            // client settles the request instead (and may cancel a
            // hedge twin).
            self.txns[i].state = TxnState::Thinking;
            if self.clients.is_some() {
                self.on_client_commit(i, response);
            } else {
                match self.sys.arrival {
                    ArrivalProcess::Closed => {
                        let think = self.sys.think.sample(&mut self.rng.think)
                            * self.workload.think_time_factor_at(now.millis());
                        self.cal.schedule_in(think, Event::Submit(i));
                    }
                    ArrivalProcess::Open { .. } => {
                        self.free_slots.push(i);
                    }
                }
            }
            // Free the MPL slot and admit waiters.
            let mut admitted = self.take_scratch();
            self.gate.depart_into(&mut admitted);
            self.note_mpl();
            for &a in &admitted {
                self.txns[a].state = TxnState::Thinking; // transient
                self.tr_admitted_from_queue(a);
                self.note_mpl();
                self.start_instance(a);
            }
            for &u in &unblocked {
                self.resume_unblocked(u);
            }
            self.put_scratch(admitted);
            self.put_scratch(unblocked);
        } else {
            self.sampler.on_abort(v.conflicts);
            if let Some(log) = self.gate_log.as_mut() {
                log.record(&GateEvent::Abort {
                    at_ms: now.millis(),
                    conflicts: v.conflicts,
                });
            }
            self.conflicts += v.conflicts;
            self.abort_run(i, RestartMode::Delayed);
        }
    }

    fn resume_unblocked(&mut self, u: usize) {
        let TxnState::Blocked { phase } = self.txns[u].state else {
            debug_assert!(false, "unblock of a non-blocked transaction");
            return;
        };
        self.tr_end(tname::BLOCKED, u, "resume");
        self.txns[u].state = TxnState::Running {
            phase,
            stage: Stage::Cpu,
        };
        self.request_cpu(u);
    }

    fn abort_run(&mut self, i: usize, mode: RestartMode) {
        let prior = self.txns[i].state;
        // Displacement may hit a transaction already out of the CC layer
        // (a `RestartWait` between abort and restart) — only runs that
        // actually sit between `cc.begin` and commit/abort leave it here.
        let was_in_cc = matches!(
            self.txns[i].state,
            TxnState::Running { .. } | TxnState::Blocked { .. }
        );
        let mut unblocked = self.take_scratch();
        self.cc.abort_into(i, &mut unblocked);
        if was_in_cc {
            debug_assert!(self.cc_active > 0, "abort without an in-CC txn");
            self.cc_active -= 1;
        }
        self.aborts += 1;
        let outcome = match mode {
            RestartMode::Delayed => "abort",
            RestartMode::Displaced => "displaced",
        };
        if matches!(prior, TxnState::Blocked { .. }) {
            self.tr_end(tname::BLOCKED, i, outcome);
        }
        if was_in_cc {
            self.tr_end(tname::RUN, i, outcome);
        }
        if prior == TxnState::RestartWait {
            self.tr_end(tname::RESTART_WAIT, i, outcome);
        }
        self.txns[i].generation += 1; // kill in-flight events
        self.txns[i].restarts += 1;
        match mode {
            RestartMode::Delayed => {
                self.txns[i].state = TxnState::RestartWait;
                self.tr_begin(tname::RESTART_WAIT, i);
                let d = self.sys.restart_delay.sample(&mut self.rng.restart);
                let generation = self.txns[i].generation;
                self.cal
                    .schedule_in(d, Event::RestartBegin { txn: i, generation });
            }
            RestartMode::Displaced => {
                self.displaced += 1;
                self.tr_end(tname::ATTEMPT, i, "displaced");
                self.txns[i].state = TxnState::Queued;
                self.gate.displace(i);
                self.note_mpl();
                self.tr_begin(tname::WAIT, i);
            }
        }
        for &u in &unblocked {
            self.resume_unblocked(u);
        }
        self.put_scratch(unblocked);
    }

    fn on_restart(&mut self, i: usize, generation: u64) {
        if self.txns[i].generation != generation {
            return;
        }
        debug_assert_eq!(self.txns[i].state, TxnState::RestartWait);
        if self.drain_target.is_some() {
            // A CC switch is draining: the restart keeps its MPL slot but
            // must not re-enter the old protocol — park it until the swap.
            self.parked_restarts.push(i);
            return;
        }
        self.restart_now(i);
    }

    /// Re-enters execution after a restart delay (or after a drain parked
    /// the expiry): fresh access set when `resample_on_restart`, identical
    /// retry otherwise.
    fn restart_now(&mut self, i: usize) {
        self.tr_end(tname::RESTART_WAIT, i, "restart");
        if self.sys.resample_on_restart {
            // Fresh access set from the *current* workload (re-planned run).
            let keep_restarts = self.txns[i].restarts;
            self.start_instance(i);
            self.txns[i].restarts = keep_restarts;
        } else {
            self.begin_run(i);
        }
    }

    // ------------------------------------------------------------------
    // Client state machine (client mode only)
    // ------------------------------------------------------------------

    /// A client issues an attempt: first attempt of a fresh request when
    /// Thinking, retry of the outstanding request when in Backoff. Arms
    /// the patience timeout (and the hedge timer for first attempts of a
    /// hedged pool) and submits the client's slot to the gate — unless
    /// retry shedding bounces the attempt at a saturated gate.
    fn on_client_issue(&mut self, c: usize, generation: u64) {
        let (retry, shed_cfg, timeout_dist, hedge_delay) = {
            let Some(pool) = self.clients.as_mut() else {
                debug_assert!(false, "ClientIssue without a client pool");
                return;
            };
            if pool.clients[c].generation != generation {
                return; // stale: the client moved on
            }
            let retry = pool.clients[c].phase == ClientPhase::Backoff;
            if retry {
                pool.stats.retries += 1;
            } else {
                debug_assert_eq!(pool.clients[c].phase, ClientPhase::Thinking);
                pool.stats.issued += 1;
                pool.stats.first_attempts += 1;
                pool.stats.in_flight += 1;
                pool.clients[c].attempt = 0;
                pool.clients[c].hedged = false;
            }
            pool.stats.attempts += 1;
            pool.clients[c].attempt += 1;
            pool.clients[c].phase = ClientPhase::Waiting;
            let hedge_delay = match pool.cfg.retry {
                RetryPolicy::Hedged { delay_ms } if !retry => Some(delay_ms),
                _ => None,
            };
            (retry, pool.cfg.shed_retries, pool.cfg.timeout, hedge_delay)
        };
        if retry {
            // Close the retry-chain flow opened when the retry was
            // scheduled; a shed retry still completes its flow link.
            self.tr_retry_flow(false, c, generation);
        }
        // Retry shedding: a retry that meets a saturated (or held) gate
        // is bounced instead of queued — first attempts always queue. A
        // shed retry consumed no service, so it is invisible to the
        // sampler: the controller's clamp signal is the wasted work of
        // in-system cancellations, not the refusals that prevent it
        // (counting refusals as spent budget would pin the bound down
        // forever once it started shedding).
        if retry && shed_cfg && (self.gate.held() || self.gate.in_system() >= self.gate.bound()) {
            if let Some(pool) = self.clients.as_mut() {
                pool.stats.shed += 1;
            }
            self.tr_client_instant(tname::CLIENT_SHED, c);
            self.retry_or_abandon(c);
            return;
        }
        let patience = timeout_dist.sample(&mut self.rng.client_timeout);
        self.cal.schedule_in(
            patience,
            Event::ClientTimeout {
                client: c,
                generation,
            },
        );
        if let Some(d) = hedge_delay {
            self.cal.schedule_in(
                d,
                Event::HedgeFire {
                    client: c,
                    generation,
                },
            );
        }
        self.submit_attempt(c);
    }

    /// Patience expired: cancel the in-flight attempt (and its hedge
    /// twin), count the timeout as sampler-visible lost work, and let
    /// the retry policy decide what happens next.
    fn on_client_timeout(&mut self, c: usize, generation: u64) {
        let hedged = {
            let Some(pool) = self.clients.as_mut() else {
                debug_assert!(false, "ClientTimeout without a client pool");
                return;
            };
            if pool.clients[c].generation != generation {
                return; // stale: the attempt already finished
            }
            debug_assert_eq!(pool.clients[c].phase, ClientPhase::Waiting);
            pool.stats.timeouts += 1;
            pool.clients[c].hedged
        };
        self.tr_client_instant(tname::CLIENT_TIMEOUT, c);
        let population = self.client_population();
        let mut consumed = self.cancel_attempt(c);
        if hedged {
            consumed |= self.cancel_attempt(population + c);
        }
        // Only attempts that actually consumed service count as
        // sampler-visible wasted work; a cancellation straight out of the
        // gate queue is an admission refusal, exactly like a shed retry.
        if consumed {
            let now = self.now();
            self.sampler.on_abort(0);
            if let Some(log) = self.gate_log.as_mut() {
                log.record(&GateEvent::Abort {
                    at_ms: now.millis(),
                    conflicts: 0,
                });
            }
        }
        self.retry_or_abandon(c);
    }

    /// The hedge timer fired with the first attempt still in flight:
    /// launch the duplicate on the client's second slot. The duplicate
    /// counts as a retry (work amplification), shares the request's
    /// timeout, and whichever attempt commits first cancels the other.
    fn on_hedge_fire(&mut self, c: usize, generation: u64) {
        let launch = {
            let Some(pool) = self.clients.as_mut() else {
                debug_assert!(false, "HedgeFire without a client pool");
                return;
            };
            if pool.clients[c].generation != generation
                || pool.clients[c].phase != ClientPhase::Waiting
                || pool.clients[c].hedged
            {
                false
            } else {
                pool.clients[c].hedged = true;
                pool.stats.attempts += 1;
                pool.stats.retries += 1;
                true
            }
        };
        if launch {
            self.tr_client_instant(tname::CLIENT_HEDGE, c);
            let population = self.client_population();
            self.submit_attempt(population + c);
        }
    }

    /// The population of the installed client pool (client mode only).
    fn client_population(&self) -> usize {
        self.clients
            .as_ref()
            .map_or(0, |p| p.cfg.population as usize)
    }

    /// After a timeout or a shed retry: retry the outstanding request
    /// (per the pool's policy) or abandon it, scheduling the client's
    /// next issue event either way. Bumps the client generation, which
    /// tombstones any still-pending timeout/hedge events.
    fn retry_or_abandon(&mut self, c: usize) {
        let now = self.now();
        let rng = &mut self.rng;
        let Some(pool) = self.clients.as_mut() else {
            debug_assert!(false, "retry decision without a client pool");
            return;
        };
        let attempt = pool.clients[c].attempt;
        pool.clients[c].generation += 1;
        let generation = pool.clients[c].generation;
        // Hedged clients never retry past a timeout (the hedge was their
        // second attempt); others retry until the per-request budget or
        // the shared token bucket runs out.
        let delay = if attempt > pool.cfg.max_retries {
            None
        } else {
            match pool.cfg.retry {
                RetryPolicy::Hedged { .. } => None,
                RetryPolicy::Budget { delay_ms, .. } => {
                    if pool.tokens >= 1.0 {
                        pool.tokens -= 1.0;
                        Some(delay_ms)
                    } else {
                        None
                    }
                }
                RetryPolicy::Backoff { jitter, .. } => {
                    let base = pool.backoff_base(attempt).expect("backoff policy");
                    Some(base * (1.0 - jitter * rng.retry_jitter.uniform01()))
                }
            }
        };
        match delay {
            Some(d) => {
                pool.clients[c].phase = ClientPhase::Backoff;
                self.cal.schedule(
                    now + d,
                    Event::ClientIssue {
                        client: c,
                        generation,
                    },
                );
                // Open the retry-chain flow; the matching finish fires
                // when the scheduled retry issues (same client and
                // generation, so the id pairs without stored state).
                self.tr_retry_flow(true, c, generation);
            }
            None => {
                pool.stats.abandoned += 1;
                pool.stats.in_flight -= 1;
                pool.clients[c].phase = ClientPhase::Thinking;
                pool.clients[c].attempt = 0;
                pool.clients[c].hedged = false;
                let mult = pool.think_multiplier(c);
                let think = self.sys.think.sample(&mut rng.think)
                    * self.workload.think_time_factor_at(now.millis())
                    * mult;
                self.cal.schedule(
                    now + think,
                    Event::ClientIssue {
                        client: c,
                        generation,
                    },
                );
                self.tr_client_instant(tname::CLIENT_ABANDON, c);
            }
        }
    }

    /// A client's attempt committed: cancel the hedge twin (if any),
    /// settle the request, bank retry tokens, fold the observed response
    /// into the latency-feedback EMA, and schedule the next request.
    fn on_client_commit(&mut self, i: usize, response_ms: f64) {
        let (c, sibling) = {
            let pool = self.clients.as_ref().expect("client mode");
            let population = pool.cfg.population as usize;
            let c = if i >= population { i - population } else { i };
            let sibling = if pool.clients[c].hedged {
                Some(if i >= population { c } else { population + c })
            } else {
                None
            };
            (c, sibling)
        };
        if let Some(s) = sibling {
            self.cancel_attempt(s);
        }
        let now = self.now();
        let rng = &mut self.rng;
        let pool = self.clients.as_mut().expect("client mode");
        debug_assert_eq!(pool.clients[c].phase, ClientPhase::Waiting);
        pool.stats.committed += 1;
        pool.stats.in_flight -= 1;
        if let RetryPolicy::Budget {
            per_commit, burst, ..
        } = pool.cfg.retry
        {
            pool.tokens = (pool.tokens + per_commit).min(burst);
        }
        let w = pool.cfg.feedback.weight;
        let ema = &mut pool.clients[c].ema_ms;
        *ema = if *ema == 0.0 {
            response_ms
        } else {
            w * response_ms + (1.0 - w) * *ema
        };
        pool.clients[c].generation += 1; // kills the armed timeout/hedge
        let generation = pool.clients[c].generation;
        pool.clients[c].phase = ClientPhase::Thinking;
        pool.clients[c].attempt = 0;
        pool.clients[c].hedged = false;
        let mult = pool.think_multiplier(c);
        let think = self.sys.think.sample(&mut rng.think)
            * self.workload.think_time_factor_at(now.millis())
            * mult;
        self.cal.schedule(
            now + think,
            Event::ClientIssue {
                client: c,
                generation,
            },
        );
    }

    /// Tears down an in-flight attempt on slot `i` after a client
    /// timeout (or a hedge resolution): the run leaves whatever stage it
    /// occupies — gate queue, CC layer, CPU/disk, restart wait — without
    /// counting as an engine-level abort, and a freed MPL slot admits
    /// waiters exactly like a commit departure. Returns whether the
    /// attempt had been admitted (and so consumed service the sampler
    /// should see as wasted work).
    fn cancel_attempt(&mut self, i: usize) -> bool {
        match self.txns[i].state {
            TxnState::Thinking => {
                // Not on the floor (e.g. the hedge twin never launched).
                self.txns[i].generation += 1;
                return false;
            }
            TxnState::Queued => {
                let removed = self.gate.remove(i);
                debug_assert!(removed, "queued attempt missing from the gate queue");
                self.txns[i].generation += 1;
                self.txns[i].state = TxnState::Thinking;
                self.tr_end(tname::WAIT, i, "cancel");
                return false; // never admitted: no MPL slot to free
            }
            TxnState::Running { .. } | TxnState::Blocked { .. } => {
                if matches!(self.txns[i].state, TxnState::Blocked { .. }) {
                    self.tr_end(tname::BLOCKED, i, "cancel");
                }
                self.tr_end(tname::RUN, i, "cancel");
                let mut unblocked = self.take_scratch();
                self.cc.abort_into(i, &mut unblocked);
                debug_assert!(self.cc_active > 0, "cancel without an in-CC txn");
                self.cc_active -= 1;
                for &u in &unblocked {
                    self.resume_unblocked(u);
                }
                self.put_scratch(unblocked);
            }
            TxnState::RestartWait => {
                // Between abort and restart: already out of the CC layer
                // but still holding its MPL slot.
                self.tr_end(tname::RESTART_WAIT, i, "cancel");
            }
        }
        self.txns[i].generation += 1; // kill in-flight burst/restart events
        self.txns[i].state = TxnState::Thinking;
        self.tr_end(tname::ATTEMPT, i, "cancel");
        let mut admitted = self.take_scratch();
        self.gate.depart_into(&mut admitted);
        self.note_mpl();
        for &a in &admitted {
            self.txns[a].state = TxnState::Thinking; // transient
            self.tr_admitted_from_queue(a);
            self.note_mpl();
            self.start_instance(a);
        }
        self.put_scratch(admitted);
        true
    }

    fn on_sample(&mut self) {
        let now = self.now();
        let m = self.sampler.harvest(now.millis());
        if let Some(ctrl) = self.controller.as_mut() {
            let bound = ctrl.update(&m);
            if let Some(log) = self.gate_log.as_mut() {
                log.record(&GateEvent::Decision {
                    at_ms: now.millis(),
                    bound,
                });
            }
            self.bound_avg.set(now, f64::from(bound).min(1e9));
            self.tr_instant(tname::GATE_DECISION, tcat::GATE, TraceArgs::Bound(bound));
            self.tr_counter(tname::BOUND, f64::from(bound));
            let mut admitted = self.take_scratch();
            self.gate.set_bound_into(bound, &mut admitted);
            self.note_mpl();
            for &a in &admitted {
                self.tr_admitted_from_queue(a);
                self.start_instance(a);
            }
            self.put_scratch(admitted);
            if self.control.displacement {
                // §4.3 displacement: abort in-system transactions per the
                // configured victim policy until the new bound holds.
                let mut excess = self.gate.excess();
                while excess > 0 {
                    match self.select_displacement_victim() {
                        Some(v) => self.abort_run(v, RestartMode::Displaced),
                        None => break,
                    }
                    excess = self.gate.excess();
                }
            }
        }
        // Trajectory points.
        let w = self.workload.at(now.millis());
        let bound_now = self.gate.bound();
        self.trajectories
            .bound
            .push(now, f64::from(bound_now.min(1_000_000)));
        self.trajectories.observed_mpl.push(now, m.observed_mpl);
        self.trajectories
            .throughput
            .push(now, m.throughput_per_sec());
        self.trajectories
            .conflict_ratio
            .push(now, m.conflicts_per_txn);
        self.trajectories.k.push(now, f64::from(w.k));
        if let Some(pool) = &self.clients {
            // Per-interval client deltas. Only pushed in client mode, so
            // the trajectory CSVs of clientless runs stay byte-identical.
            let s = pool.stats;
            self.trajectories
                .attempts
                .push(now, (s.attempts - self.last_attempts) as f64);
            self.trajectories
                .retries
                .push(now, (s.retries - self.last_retries) as f64);
            self.trajectories
                .abandons
                .push(now, (s.abandoned - self.last_abandoned) as f64);
            self.last_attempts = s.attempts;
            self.last_retries = s.retries;
            self.last_abandoned = s.abandoned;
        }
        if self.record_optimum {
            let key = (
                w.k,
                (w.query_frac * 1000.0) as u32,
                (w.write_frac * 1000.0) as u32,
                (w.access_skew * 1000.0) as u32,
            );
            let sys = &self.sys;
            let workload = &self.workload;
            let n_opt = *self.optimum_cache.entry(key).or_insert_with(|| {
                workload.analytic_optimum(now.millis(), sys, sys.terminals.max(2))
            });
            self.trajectories.optimum.push(now, f64::from(n_opt));
        }
        // Closed-loop protocol selection: the policy sees the interval's
        // conflict state and may pick another candidate. Decisions are
        // skipped while a previous switch still drains (the observation
        // would measure the drain, not the workload; the policy's
        // cooldown covers the intervals right after the swap). No RNG is
        // consumed here, so runs without a policy are byte-identical to
        // pre-meta builds.
        if self.meta.is_some() && self.drain_target.is_none() {
            let obs = MetaObservation {
                at_ms: now.millis(),
                interval_ms: m.interval_ms,
                conflicts_per_txn: m.conflicts_per_txn,
                abort_ratio: m.abort_ratio(),
                throughput_per_s: m.throughput_per_sec(),
                gate_queue: self.gate.queue_len(),
                observed_mpl: m.observed_mpl,
            };
            let meta = self.meta.as_mut().expect("checked above");
            if let Some(next) = meta.policy.decide(meta.active, &obs) {
                if next != meta.active {
                    debug_assert!(next < meta.candidates.len());
                    meta.active = next;
                    let target = meta.candidates[next];
                    self.begin_cc_switch(target);
                }
            }
        }
        self.cal
            .schedule_in(self.control.sample_interval_ms, Event::Sample);
    }

    /// Picks the next displacement victim among in-system transactions per
    /// `control.victim_policy`. Progress-based policies break ties by age
    /// (youngest preferred) so repeated displacement stays deterministic.
    fn select_displacement_victim(&self) -> Option<usize> {
        use crate::config::VictimPolicy;
        let candidates = self
            .txns
            .iter()
            .enumerate()
            .filter(|(_, t)| t.in_system());
        match self.control.victim_policy {
            VictimPolicy::Youngest => candidates.max_by_key(|(_, t)| t.ts),
            VictimPolicy::Oldest => candidates.min_by_key(|(_, t)| t.ts),
            VictimPolicy::LeastProgress => {
                candidates.min_by_key(|(_, t)| (t.progress(), std::cmp::Reverse(t.ts)))
            }
            VictimPolicy::MostProgress => candidates.max_by_key(|(_, t)| (t.progress(), t.ts)),
        }
        .map(|(idx, _)| idx)
    }

    fn note_mpl(&mut self) {
        let now = self.now();
        let n = self.gate.in_system();
        self.mpl_avg.set(now, f64::from(n));
        self.sampler.on_mpl_change(now.millis(), n);
        if let Some(log) = self.gate_log.as_mut() {
            log.record(&GateEvent::Mpl {
                at_ms: now.millis(),
                in_system: n,
            });
        }
        self.tr_counter(tname::MPL, f64::from(n));
    }
}

/// How an aborted run re-enters execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RestartMode {
    /// Restart inside the system after the restart delay (keeps its MPL
    /// slot) — the normal abort path.
    Delayed,
    /// Displacement victim: leaves the system and re-queues at the gate.
    Displaced,
}

#[cfg(test)]
mod tests {
    use super::*;
    use alc_core::controller::{FixedBound, IncrementalSteps, IsParams};
    use alc_des::dist::Dist;

    fn small_sys(terminals: u32, seed: u64) -> SystemConfig {
        SystemConfig {
            terminals,
            arrival: ArrivalProcess::Closed,
            cpus: 4,
            cpu_phase: Dist::exponential(4.0),
            disk_access: Dist::constant(3.0),
            disk_init_commit: Dist::constant(40.0),
            think: Dist::exponential(200.0),
            restart_delay: Dist::constant(2.0),
            db_size: 500,
            resample_on_restart: true,
            seed,
        }
    }

    fn no_control(bound: u32) -> ControlConfig {
        ControlConfig {
            sample_interval_ms: 500.0,
            initial_bound: bound,
            warmup_ms: 2_000.0,
            ..ControlConfig::default()
        }
    }

    fn run_fixed(
        terminals: u32,
        bound: u32,
        cc: CcKind,
        workload: WorkloadConfig,
        horizon: f64,
        seed: u64,
    ) -> RunStats {
        let mut sim = Simulator::new(small_sys(terminals, seed), workload, cc, no_control(bound), None);
        sim.set_record_optimum(false);
        sim.run(horizon)
    }

    #[test]
    fn transactions_flow_and_commit() {
        let stats = run_fixed(
            20,
            u32::MAX,
            CcKind::Certification,
            WorkloadConfig::default(),
            20_000.0,
            1,
        );
        assert!(stats.commits > 100, "only {} commits", stats.commits);
        assert!(stats.mean_response_ms > 0.0);
        assert!(stats.mean_mpl > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_fixed(
            15,
            10,
            CcKind::Certification,
            WorkloadConfig::default(),
            10_000.0,
            42,
        );
        let b = run_fixed(
            15,
            10,
            CcKind::Certification,
            WorkloadConfig::default(),
            10_000.0,
            42,
        );
        assert_eq!(a, b, "same seed must give identical statistics");
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_fixed(
            15,
            10,
            CcKind::Certification,
            WorkloadConfig::default(),
            10_000.0,
            1,
        );
        let b = run_fixed(
            15,
            10,
            CcKind::Certification,
            WorkloadConfig::default(),
            10_000.0,
            2,
        );
        assert_ne!(a.commits, b.commits);
    }

    #[test]
    fn gate_bound_caps_mpl() {
        let stats = run_fixed(
            40,
            5,
            CcKind::Certification,
            WorkloadConfig::default(),
            15_000.0,
            3,
        );
        assert!(
            stats.mean_mpl <= 5.0 + 1e-9,
            "observed MPL {} exceeds bound 5",
            stats.mean_mpl
        );
    }

    #[test]
    fn read_only_workload_never_aborts() {
        let workload = WorkloadConfig {
            query_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        for cc in [CcKind::Certification, CcKind::TwoPhaseLocking] {
            let stats = run_fixed(20, u32::MAX, cc, workload.clone(), 15_000.0, 4);
            assert_eq!(stats.aborts, 0, "{cc:?} aborted read-only txns");
            assert!(stats.commits > 50);
        }
    }

    #[test]
    fn contention_causes_aborts_under_certification() {
        // Tiny database + heavy writes: certification must abort runs.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(8.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.0),
            write_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(30, 5);
        sys.db_size = 60;
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        let stats = sim.run(15_000.0);
        assert!(stats.aborts > 20, "only {} aborts", stats.aborts);
        assert!(stats.abort_ratio > 0.1);
    }

    #[test]
    fn all_protocols_make_progress_under_contention() {
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(6.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.1),
            write_frac: alc_analytic::surface::Schedule::Constant(0.5),
            ..WorkloadConfig::default()
        };
        for cc in CcKind::ALL {
            let mut sys = small_sys(25, 6);
            sys.db_size = 300;
            let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
            sim.set_record_optimum(false);
            let stats = sim.run(20_000.0);
            assert!(
                stats.commits > 100,
                "{cc:?} starved: {} commits",
                stats.commits
            );
        }
    }

    #[test]
    fn prevention_protocols_abort_instead_of_deadlocking() {
        // Heavy write contention on a small database: detection and
        // prevention must all keep committing; the prevention pair pays
        // with aborts where the detector only aborts on real cycles.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(8.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.0),
            write_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let run = |cc: CcKind| {
            let mut sys = small_sys(30, 21);
            sys.db_size = 80;
            let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
            sim.set_record_optimum(false);
            sim.run(20_000.0)
        };
        let detect = run(CcKind::TwoPhaseLocking);
        let wound = run(CcKind::WoundWait);
        let die = run(CcKind::WaitDie);
        for (name, s) in [("2pl", &detect), ("wound-wait", &wound), ("wait-die", &die)] {
            assert!(s.commits > 100, "{name} starved: {} commits", s.commits);
        }
        assert!(
            wound.aborts > detect.aborts && die.aborts > detect.aborts,
            "prevention should abort more than detection: 2pl {} vs ww {} / wd {}",
            detect.aborts,
            wound.aborts,
            die.aborts
        );
    }

    #[test]
    fn mvto_queries_do_not_abort() {
        // MVTO's headline property: read-only transactions never abort,
        // even under write contention (unless their snapshot is pruned,
        // which a 25-terminal run never reaches).
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(6.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.5),
            write_frac: alc_analytic::surface::Schedule::Constant(0.8),
            ..WorkloadConfig::default()
        };
        let run = |cc: CcKind| {
            let mut sys = small_sys(25, 22);
            sys.db_size = 100;
            let mut sim = Simulator::new(sys, workload.clone(), cc, no_control(u32::MAX), None);
            sim.set_record_optimum(false);
            sim.run(20_000.0)
        };
        let occ = run(CcKind::Certification);
        let mv = run(CcKind::Multiversion);
        assert!(mv.commits > 100, "mvto starved");
        assert!(
            mv.abort_ratio < occ.abort_ratio,
            "mvto should abort less than certification under a query mix: {} vs {}",
            mv.abort_ratio,
            occ.abort_ratio
        );
    }

    #[test]
    fn throughput_matches_mva_without_contention() {
        // Read-only => no CC effects; the closed network must match MVA.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(8.0),
            query_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let sys = SystemConfig {
            terminals: 60,
            arrival: ArrivalProcess::Closed,
            cpus: 4,
            cpu_phase: Dist::exponential(4.0),
            disk_access: Dist::constant(3.0),
            disk_init_commit: Dist::constant(40.0),
            think: Dist::exponential(500.0),
            restart_delay: Dist::constant(2.0),
            db_size: 10_000,
            resample_on_restart: true,
            seed: 7,
        };
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            ControlConfig {
                initial_bound: u32::MAX,
                warmup_ms: 10_000.0,
                ..ControlConfig::default()
            },
            None,
        );
        sim.set_record_optimum(false);
        let stats = sim.run(120_000.0);
        // MVA reference: CPU demand 10 phases * 4ms, delay = disk 100ms +
        // think 500ms.
        let net = alc_analytic::mva::ClosedNetwork::new(40.0, 4, 100.0 + 500.0);
        let x = net.throughput(60) * 1000.0; // per second
        let rel_err = (stats.throughput_per_sec - x).abs() / x;
        assert!(
            rel_err < 0.08,
            "simulated {} vs MVA {} (rel err {:.3})",
            stats.throughput_per_sec,
            x,
            rel_err
        );
    }

    #[test]
    fn controller_trajectory_is_recorded() {
        let ctrl = IncrementalSteps::new(IsParams {
            initial_bound: 5,
            max_bound: 60,
            ..IsParams::default()
        });
        let mut sim = Simulator::new(
            small_sys(30, 8),
            WorkloadConfig::default(),
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 500.0,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            Some(Box::new(ctrl)),
        );
        sim.set_record_optimum(false);
        sim.run_until(20_000.0);
        let traj = sim.trajectories();
        assert!(traj.bound.len() >= 35, "samples: {}", traj.bound.len());
        assert!(traj.throughput.len() == traj.bound.len());
        // The controller must have moved the bound off its start value.
        let bounds: Vec<f64> = traj.bound.points().iter().map(|&(_, v)| v).collect();
        assert!(bounds.iter().any(|&b| (b - 5.0).abs() > 0.5));
    }

    #[test]
    fn fixed_bound_controller_equivalent_to_static_gate() {
        let a = {
            let mut sim = Simulator::new(
                small_sys(20, 9),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(8),
                None,
            );
            sim.set_record_optimum(false);
            sim.run(15_000.0)
        };
        let b = {
            let mut sim = Simulator::new(
                small_sys(20, 9),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(8),
                Some(Box::new(FixedBound::new(8))),
            );
            sim.set_record_optimum(false);
            sim.run(15_000.0)
        };
        assert_eq!(a.commits, b.commits);
        assert!((a.throughput_per_sec - b.throughput_per_sec).abs() < 1e-9);
    }

    #[test]
    fn displacement_enforces_bound_drop() {
        // A controller that slams the bound down mid-run.
        struct Slammer {
            at: u32,
            calls: u32,
        }
        impl LoadController for Slammer {
            fn name(&self) -> &'static str {
                "slammer"
            }
            fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
                self.calls += 1;
                if self.calls > 10 {
                    2
                } else {
                    self.at
                }
            }
            fn current_bound(&self) -> u32 {
                self.at
            }
            fn reset(&mut self) {}
        }
        let mut sim = Simulator::new(
            small_sys(30, 10),
            WorkloadConfig::default(),
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 500.0,
                displacement: true,
                warmup_ms: 0.0,
                ..ControlConfig::default()
            },
            Some(Box::new(Slammer { at: 20, calls: 0 })),
        );
        sim.set_record_optimum(false);
        // Samples fire at 500ms intervals; call 11 (the slam to bound 2)
        // happens at t = 5500ms.
        let stats = sim.run_until(5_600.0);
        assert!(stats.displaced > 0, "displacement never happened");
        assert!(
            sim.gate().in_system() <= 2,
            "bound not enforced: {} in system",
            sim.gate().in_system()
        );
    }

    #[test]
    fn victim_policies_enforce_bound_and_differ() {
        use crate::config::VictimPolicy;
        // A controller that drops the bound sharply mid-run, forcing many
        // displacement decisions.
        struct Stepper {
            calls: u32,
        }
        impl LoadController for Stepper {
            fn name(&self) -> &'static str {
                "stepper"
            }
            fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
                self.calls += 1;
                if self.calls.is_multiple_of(4) {
                    3
                } else {
                    25
                }
            }
            fn current_bound(&self) -> u32 {
                25
            }
            fn reset(&mut self) {}
        }
        let run = |policy: VictimPolicy| {
            let mut sim = Simulator::new(
                small_sys(30, 17),
                WorkloadConfig::default(),
                CcKind::Certification,
                ControlConfig {
                    sample_interval_ms: 400.0,
                    displacement: true,
                    victim_policy: policy,
                    warmup_ms: 0.0,
                    ..ControlConfig::default()
                },
                Some(Box::new(Stepper { calls: 0 })),
            );
            sim.set_record_optimum(false);
            sim.run_until(20_000.0)
        };
        let mut commits = Vec::new();
        for policy in VictimPolicy::ALL {
            let stats = run(policy);
            assert!(stats.displaced > 0, "{policy:?} never displaced");
            assert!(stats.commits > 50, "{policy:?} starved");
            commits.push(stats.commits);
        }
        // The policies pick different victims, so the runs diverge.
        assert!(
            commits.iter().any(|&c| c != commits[0]),
            "all victim policies produced identical runs: {commits:?}"
        );
    }

    #[test]
    fn workload_jump_shifts_abort_rate() {
        let workload = WorkloadConfig::k_jump(4.0, 16.0, 15_000.0);
        let mut sys = small_sys(25, 11);
        sys.db_size = 400;
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: u32::MAX,
                warmup_ms: 3_000.0,
                ..ControlConfig::default()
            },
            None,
        );
        sim.set_record_optimum(false);
        let before = sim.run_until(15_000.0);
        sim.reset_window();
        let after = sim.run_until(30_000.0);
        assert!(
            after.abort_ratio > before.abort_ratio * 2.0,
            "k jump 4→16 should multiply aborts: {} -> {}",
            before.abort_ratio,
            after.abort_ratio
        );
    }

    #[test]
    fn hot_spots_raise_contention() {
        // Hot-spot extension: Zipf skew concentrates accesses and must
        // raise the abort ratio relative to uniform access.
        let run_with_skew = |skew: f64| {
            let workload = WorkloadConfig {
                access_skew: alc_analytic::surface::Schedule::Constant(skew),
                write_frac: alc_analytic::surface::Schedule::Constant(0.5),
                ..WorkloadConfig::default()
            };
            let mut sys = small_sys(25, 13);
            sys.db_size = 2000;
            let mut sim = Simulator::new(
                sys,
                workload,
                CcKind::Certification,
                no_control(u32::MAX),
                None,
            );
            sim.set_record_optimum(false);
            sim.run(20_000.0)
        };
        let uniform = run_with_skew(0.0);
        let skewed = run_with_skew(0.9);
        assert!(
            skewed.abort_ratio > 1.5 * uniform.abort_ratio.max(0.01),
            "skew should raise aborts: uniform {} vs skewed {}",
            uniform.abort_ratio,
            skewed.abort_ratio
        );
        assert!(skewed.commits > 50, "skewed run starved");
    }

    #[test]
    fn extreme_skew_still_terminates() {
        // The duplicate-rejection fallback must keep instance creation
        // finite even when k is large relative to the hot set.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(10.0),
            access_skew: alc_analytic::surface::Schedule::Constant(3.0),
            ..WorkloadConfig::default()
        };
        let mut sys = small_sys(10, 14);
        sys.db_size = 50;
        let mut sim = Simulator::new(
            sys,
            workload,
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        let stats = sim.run(10_000.0);
        assert!(stats.commits + stats.aborts > 0);
    }

    fn open_sys(slots: u32, interarrival_ms: f64, seed: u64) -> SystemConfig {
        SystemConfig {
            arrival: ArrivalProcess::Open {
                interarrival: Dist::exponential(interarrival_ms),
            },
            ..small_sys(slots, seed)
        }
    }

    #[test]
    fn open_arrivals_flow_at_offered_rate() {
        // Î» = 1/50ms = 20/s, far below capacity: throughput â Î», no loss.
        let mut sim = Simulator::new(
            open_sys(60, 50.0, 31),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        let stats = sim.run(60_000.0);
        assert_eq!(stats.lost, 0, "underload must not lose arrivals");
        let rel = (stats.throughput_per_sec - 20.0).abs() / 20.0;
        assert!(
            rel < 0.1,
            "open throughput {} vs offered 20/s",
            stats.throughput_per_sec
        );
    }

    #[test]
    fn open_overload_exhausts_slots_and_counts_losses() {
        // Î» = 200/s against a 10-slot pool with heavy service: losses.
        let mut sim = Simulator::new(
            open_sys(10, 5.0, 32),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        let stats = sim.run(30_000.0);
        assert!(stats.lost > 100, "only {} lost", stats.lost);
        assert!(sim.gate().in_system() <= 10);
        assert!(stats.commits > 0, "system wedged under overload");
    }

    #[test]
    fn open_mode_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new(
                open_sys(40, 20.0, 33),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(15),
                None,
            );
            sim.set_record_optimum(false);
            sim.run(30_000.0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn open_overload_admission_control_preserves_goodput() {
        // The classic open-system argument for admission control: offered
        // load far above the thrashing point. Uncontrolled, every arrival
        // enters and data contention destroys goodput; with a fixed gate
        // at a sane MPL, the same offered load commits far more.
        let workload = WorkloadConfig {
            k: alc_analytic::surface::Schedule::Constant(8.0),
            query_frac: alc_analytic::surface::Schedule::Constant(0.0),
            write_frac: alc_analytic::surface::Schedule::Constant(0.8),
            ..WorkloadConfig::default()
        };
        let run = |bound: u32| {
            let mut sys = open_sys(120, 4.0, 34); // 250/s offered
            sys.db_size = 150;
            let mut sim = Simulator::new(
                sys,
                workload.clone(),
                CcKind::Certification,
                no_control(bound),
                None,
            );
            sim.set_record_optimum(false);
            sim.run(40_000.0)
        };
        let uncontrolled = run(u32::MAX);
        let gated = run(8);
        assert!(
            gated.throughput_per_sec > 1.3 * uncontrolled.throughput_per_sec,
            "admission control did not help the open system: gated {} vs open {}",
            gated.throughput_per_sec,
            uncontrolled.throughput_per_sec
        );
    }

    #[test]
    fn think_time_factor_modulates_closed_load() {
        // Halving think time roughly doubles the offered load, so an
        // uncontested system commits substantially more.
        let run = |factor: f64| {
            let workload = WorkloadConfig {
                think_time_factor: alc_analytic::surface::Schedule::Constant(factor),
                ..WorkloadConfig::default()
            };
            run_fixed(20, u32::MAX, CcKind::Certification, workload, 30_000.0, 41)
        };
        let nominal = run(1.0);
        let eager = run(0.25);
        assert!(
            eager.commits as f64 > 1.3 * nominal.commits as f64,
            "shorter think should raise throughput: {} vs {}",
            eager.commits,
            nominal.commits
        );
        // The identity factor must reproduce the default workload exactly
        // (the scenario DSL relies on this to subsume stationary specs).
        let default_run = run_fixed(
            20,
            u32::MAX,
            CcKind::Certification,
            WorkloadConfig::default(),
            30_000.0,
            41,
        );
        assert_eq!(nominal, default_run);
    }

    #[test]
    fn arrival_rate_surge_overloads_the_slot_pool() {
        // A 10× arrival burst mid-run must exhaust the open-mode slots
        // and start counting losses, where the baseline rate loses none.
        let surge_workload = WorkloadConfig {
            arrival_rate_factor: alc_analytic::surface::Schedule::Piecewise(vec![
                (0.0, 1.0),
                (10_000.0, 10.0),
            ]),
            ..WorkloadConfig::default()
        };
        let run = |workload: WorkloadConfig| {
            let mut sim = Simulator::new(
                open_sys(20, 50.0, 42),
                workload,
                CcKind::Certification,
                no_control(u32::MAX),
                None,
            );
            sim.set_record_optimum(false);
            sim.run(30_000.0)
        };
        let baseline = run(WorkloadConfig::default());
        let surged = run(surge_workload);
        assert_eq!(baseline.lost, 0, "baseline must not lose arrivals");
        assert!(surged.lost > 50, "surge lost only {}", surged.lost);
        assert!(
            surged.commits > baseline.commits,
            "the admitted part of the surge should still commit more"
        );
    }

    /// The CC-switch conservation invariant: across a drain-and-swap
    /// boundary every transaction slot stays accounted for (census sums
    /// to the population), the in-system count matches the states that
    /// hold an MPL slot, commits keep flowing under the new protocol, and
    /// the whole run is deterministic.
    #[test]
    fn cc_switch_drains_swaps_and_conserves_transactions() {
        let run = || {
            let workload = WorkloadConfig {
                write_frac: alc_analytic::surface::Schedule::Constant(0.5),
                ..WorkloadConfig::default()
            };
            let mut sys = small_sys(25, 77);
            sys.db_size = 200; // enough contention for aborts on both sides
            let mut sim = Simulator::new(
                sys,
                workload,
                CcKind::Certification,
                ControlConfig {
                    sample_interval_ms: 500.0,
                    initial_bound: 12,
                    warmup_ms: 0.0,
                    ..ControlConfig::default()
                },
                None,
            );
            sim.set_record_optimum(false);
            sim.set_cc_switches(&[(10_000.0, CcKind::TwoPhaseLocking)]);
            let before = sim.run_until(9_999.0);
            let census = sim.txn_state_census();
            assert_eq!(census.iter().sum::<usize>(), 25, "slot lost pre-switch");
            let after = sim.run_until(30_000.0);
            (before, after, sim)
        };
        let (before, after, sim) = run();
        assert_eq!(sim.current_cc(), CcKind::TwoPhaseLocking);
        assert_eq!(sim.cc_switches_completed(), 1);
        // Conservation: every slot still in exactly one state, and the
        // gate's population matches the states that hold an MPL slot.
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 25, "slot lost in drain");
        assert_eq!(
            sim.gate().in_system() as usize,
            census[2] + census[3] + census[4],
            "in-system count diverged from the running/blocked/restarting states"
        );
        // Monotone counters: the post-switch window did real work, and
        // nothing was un-counted by the swap.
        assert!(after.commits > before.commits, "no progress after switch");
        assert!(after.aborts >= before.aborts);
        // Determinism across reruns.
        let (before2, after2, _) = run();
        assert_eq!(before, before2);
        assert_eq!(after, after2);
    }

    /// Displacement firing *during* a CC-switch drain must not
    /// double-start a parked restart: a displaced `RestartWait` slot
    /// moves to the gate queue and re-enters through the release, not
    /// through the parked list (the swap's census debug-assert and the
    /// conservation checks below catch a double `cc.begin`).
    #[test]
    fn displacement_during_drain_does_not_double_start_parked_restarts() {
        let run = || {
            // High write contention on a small database + long restart
            // delays: many slots sit in RestartWait at any moment, so
            // drains regularly park restarts. Displacement is on and the
            // controller slams the bound down every few samples, so
            // victims (including parked RestartWait slots) are taken
            // while drains are in flight.
            let workload = WorkloadConfig {
                k: alc_analytic::surface::Schedule::Constant(8.0),
                query_frac: alc_analytic::surface::Schedule::Constant(0.0),
                write_frac: alc_analytic::surface::Schedule::Constant(1.0),
                ..WorkloadConfig::default()
            };
            let mut sys = small_sys(30, 81);
            sys.db_size = 60;
            sys.restart_delay = Dist::constant(400.0);
            struct Slammer {
                calls: u32,
            }
            impl LoadController for Slammer {
                fn name(&self) -> &'static str {
                    "slammer"
                }
                fn update(&mut self, _m: &alc_core::measure::Measurement) -> u32 {
                    self.calls += 1;
                    if self.calls.is_multiple_of(3) {
                        2
                    } else {
                        25
                    }
                }
                fn current_bound(&self) -> u32 {
                    25
                }
                fn reset(&mut self) {}
            }
            let mut sim = Simulator::new(
                sys,
                workload,
                CcKind::Certification,
                ControlConfig {
                    sample_interval_ms: 300.0,
                    displacement: true,
                    warmup_ms: 0.0,
                    ..ControlConfig::default()
                },
                Some(Box::new(Slammer { calls: 0 })),
            );
            sim.set_record_optimum(false);
            let switches: Vec<(f64, CcKind)> = (1..20)
                .map(|i| {
                    (
                        f64::from(i) * 1_000.0,
                        if i % 2 == 0 {
                            CcKind::Certification
                        } else {
                            CcKind::WaitDie
                        },
                    )
                })
                .collect();
            sim.set_cc_switches(&switches);
            let stats = sim.run_until(25_000.0);
            (stats, sim)
        };
        let (stats, sim) = run();
        assert!(stats.displaced > 0, "scenario never displaced");
        assert!(sim.cc_switches_completed() > 5, "drains never completed");
        assert!(stats.commits > 50, "system wedged");
        // Conservation after heavy drain × displacement interleaving.
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 30);
        assert_eq!(
            sim.gate().in_system() as usize,
            census[2] + census[3] + census[4]
        );
        assert_eq!(
            sim.cc_in_flight() as usize,
            census[2] + census[3],
            "cc_active must equal the running+blocked census"
        );
        let (stats2, _) = run();
        assert_eq!(stats, stats2, "switch+displacement run must be deterministic");
    }

    #[test]
    fn cc_switch_without_contention_is_transparent() {
        // Read-only workload: the switch must not lose a single commit
        // relative to... itself on rerun, and both protocols commit.
        let workload = WorkloadConfig {
            query_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let mut sim = Simulator::new(
            small_sys(15, 78),
            workload,
            CcKind::Certification,
            no_control(10),
            None,
        );
        sim.set_record_optimum(false);
        sim.set_cc_switches(&[(8_000.0, CcKind::Multiversion), (16_000.0, CcKind::WaitDie)]);
        let stats = sim.run_until(24_000.0);
        assert_eq!(sim.cc_switches_completed(), 2);
        assert_eq!(sim.current_cc(), CcKind::WaitDie);
        assert_eq!(stats.aborts, 0, "read-only runs must never abort");
        assert!(stats.commits > 100);
    }

    #[test]
    fn fault_kill_restart_changes_capacity_and_recovers() {
        let run = || {
            let mut sim = Simulator::new(
                small_sys(30, 79),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(u32::MAX),
                None,
            );
            sim.set_record_optimum(false);
            // Kill 3 of 4 CPUs during [8s, 20s), then restore.
            sim.set_faults(&[(8_000.0, -3), (20_000.0, 3)]);
            // Window boundaries sit just before the fault events (an
            // event at exactly t fires within `run_until(t)`).
            let healthy = sim.run_until(7_999.0);
            assert_eq!(sim.cpu_servers(), 4);
            sim.reset_window();
            let degraded = sim.run_until(19_999.0);
            assert_eq!(sim.cpu_servers(), 1);
            sim.reset_window();
            let recovered = sim.run_until(32_000.0);
            assert_eq!(sim.cpu_servers(), 4);
            (healthy, degraded, recovered)
        };
        let (healthy, degraded, recovered) = run();
        assert!(
            degraded.throughput_per_sec < 0.7 * healthy.throughput_per_sec,
            "losing 3 of 4 CPUs should throttle throughput: {} vs {}",
            degraded.throughput_per_sec,
            healthy.throughput_per_sec
        );
        assert!(
            recovered.throughput_per_sec > 1.3 * degraded.throughput_per_sec,
            "restart should restore throughput: {} vs {}",
            recovered.throughput_per_sec,
            degraded.throughput_per_sec
        );
        // Census conservation under faults, and determinism.
        let again = run();
        assert_eq!((healthy, degraded, recovered), again);
    }

    #[test]
    fn total_cpu_outage_stalls_until_restart() {
        let mut sim = Simulator::new(
            small_sys(10, 80),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        sim.set_faults(&[(5_000.0, -4), (15_000.0, 4)]);
        sim.run_until(5_000.0);
        sim.reset_window();
        let out = sim.run_until(15_000.0);
        // With every CPU dead, phases cannot complete — only runs already
        // past their last CPU burst may still trickle through the disk.
        assert!(
            out.commits <= 10,
            "a total outage should stall commits, saw {}",
            out.commits
        );
        sim.reset_window();
        let back = sim.run_until(30_000.0);
        assert!(back.commits > 50, "system must recover after the restart");
        assert_eq!(sim.txn_state_census().iter().sum::<usize>(), 10);
    }

    /// Closed-loop protocol selection: a conflict-threshold policy must
    /// escalate to the high-contention candidate when the workload turns
    /// hot, and de-escalate when it calms — with every decision recorded
    /// in the switch-event trace, conservation intact, and the whole run
    /// deterministic.
    #[test]
    fn adaptive_cc_switches_on_conflict_and_conserves() {
        use alc_core::meta::{ConflictThreshold, GuardParams};
        let run = || {
            // Calm (k=2, few writes) → hot (k=8, small db) → calm again.
            let workload = WorkloadConfig {
                k: alc_analytic::surface::Schedule::Piecewise(vec![
                    (0.0, 2.0),
                    (8_000.0, 8.0),
                    (22_000.0, 2.0),
                ]),
                query_frac: alc_analytic::surface::Schedule::Constant(0.0),
                write_frac: alc_analytic::surface::Schedule::Constant(0.8),
                ..WorkloadConfig::default()
            };
            let mut sys = small_sys(25, 91);
            sys.db_size = 120;
            let mut sim = Simulator::new(
                sys,
                workload,
                CcKind::Certification,
                ControlConfig {
                    sample_interval_ms: 500.0,
                    initial_bound: 15,
                    warmup_ms: 0.0,
                    ..ControlConfig::default()
                },
                None,
            );
            sim.set_record_optimum(false);
            let policy = ConflictThreshold::new(
                2,
                0.6,
                0.5,
                GuardParams {
                    min_dwell_ms: 3_000.0,
                    cooldown_ms: 1_000.0,
                    hysteresis: 0.2,
                },
            );
            sim.set_adaptive_cc(
                vec![CcKind::Certification, CcKind::TwoPhaseLocking],
                Box::new(policy),
            );
            let stats = sim.run_until(35_000.0);
            (stats, sim)
        };
        let (stats, sim) = run();
        let switches = &sim.trajectories().switches;
        assert!(
            switches.len() >= 2,
            "expected an escalation and a de-escalation, saw {switches:?}"
        );
        assert_eq!(switches[0].from, CcKind::Certification);
        assert_eq!(switches[0].to, CcKind::TwoPhaseLocking);
        assert_eq!(
            sim.cc_switches_completed(),
            switches.len() as u64,
            "trace must record every completed switch"
        );
        // The dwell guard: consecutive decisions at least min_dwell apart.
        for w in switches.windows(2) {
            assert!(
                w[1].decided_at_ms - w[0].decided_at_ms >= 3_000.0,
                "decisions at {} and {} violate min_dwell",
                w[0].decided_at_ms,
                w[1].decided_at_ms
            );
        }
        for e in switches {
            assert!(e.completed_at_ms >= e.decided_at_ms);
        }
        // Conservation across policy-driven drains.
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 25, "slot lost in drain");
        assert_eq!(
            sim.gate().in_system() as usize,
            census[2] + census[3] + census[4]
        );
        assert!(stats.commits > 100, "system starved under adaptation");
        // Determinism across reruns (stats and the full switch trace).
        let (stats2, sim2) = run();
        assert_eq!(stats, stats2);
        assert_eq!(*switches, sim2.trajectories().switches);
    }

    /// An adaptive run whose policy never fires must be byte-identical
    /// to the same run without any meta-controller: the wiring itself
    /// is free.
    #[test]
    fn adaptive_cc_with_quiet_policy_is_transparent() {
        use alc_core::meta::{ConflictThreshold, GuardParams};
        let base = || {
            let mut sim = Simulator::new(
                small_sys(20, 92),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(10),
                None,
            );
            sim.set_record_optimum(false);
            sim
        };
        let plain = {
            let mut sim = base();
            sim.run(20_000.0)
        };
        let adaptive = {
            // A threshold far above anything the default workload can
            // produce: the policy observes but never acts.
            let policy = ConflictThreshold::new(
                2,
                1e9,
                0.3,
                GuardParams {
                    min_dwell_ms: 1_000.0,
                    cooldown_ms: 0.0,
                    hysteresis: 0.1,
                },
            );
            let mut sim2 = base();
            sim2.set_adaptive_cc(
                vec![CcKind::Certification, CcKind::TwoPhaseLocking],
                Box::new(policy),
            );
            sim2.run(20_000.0)
        };
        assert_eq!(plain, adaptive);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn adaptive_cc_rejects_scheduled_switch_mix() {
        use alc_core::meta::{ConflictThreshold, GuardParams};
        let mut sim = Simulator::new(
            small_sys(10, 93),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(5),
            None,
        );
        sim.set_cc_switches(&[(1_000.0, CcKind::WaitDie)]);
        sim.set_adaptive_cc(
            vec![CcKind::Certification, CcKind::WaitDie],
            Box::new(ConflictThreshold::new(
                2,
                1.0,
                0.5,
                GuardParams {
                    min_dwell_ms: 0.0,
                    cooldown_ms: 0.0,
                    hysteresis: 0.0,
                },
            )),
        );
    }

    /// Scheduled phase switches also land in the switch-event trace, so
    /// `time_in_protocol` columns work for `cc.phases` specs too.
    #[test]
    fn scheduled_switches_are_recorded_in_the_trace() {
        let workload = WorkloadConfig {
            query_frac: alc_analytic::surface::Schedule::Constant(1.0),
            ..WorkloadConfig::default()
        };
        let mut sim = Simulator::new(
            small_sys(15, 94),
            workload,
            CcKind::Certification,
            no_control(10),
            None,
        );
        sim.set_record_optimum(false);
        sim.set_cc_switches(&[(8_000.0, CcKind::Multiversion)]);
        sim.run_until(20_000.0);
        let switches = &sim.trajectories().switches;
        assert_eq!(switches.len(), 1);
        assert_eq!(switches[0].from, CcKind::Certification);
        assert_eq!(switches[0].to, CcKind::Multiversion);
        assert!(switches[0].decided_at_ms >= 8_000.0);
        assert!(switches[0].completed_at_ms >= switches[0].decided_at_ms);
    }

    #[test]
    fn little_law_consistency() {
        // mean_mpl ≈ throughput × mean in-system residence. Residence is
        // response minus queue wait; with an unlimited gate there is no
        // queueing, so response == residence.
        let stats = run_fixed(
            25,
            u32::MAX,
            CcKind::Certification,
            WorkloadConfig::default(),
            40_000.0,
            12,
        );
        let little = stats.throughput_per_sec / 1000.0 * stats.mean_response_ms;
        let rel = (little - stats.mean_mpl).abs() / stats.mean_mpl;
        assert!(
            rel < 0.15,
            "Little's law violated: X*R = {little}, mean MPL = {}",
            stats.mean_mpl
        );
    }

    // ------------------------------------------------------------------
    // Client mode
    // ------------------------------------------------------------------

    use crate::client::{ClientConfig, LatencyFeedback, RetryPolicy};

    fn client_pool(population: u32, timeout_ms: f64) -> ClientConfig {
        ClientConfig::new(population, Dist::constant(timeout_ms))
    }

    fn assert_client_conservation(sim: &Simulator) {
        let s = sim.client_stats().expect("client mode");
        assert_eq!(
            s.issued,
            s.committed + s.abandoned + s.in_flight,
            "request conservation violated: {s:?}"
        );
        assert_eq!(
            s.attempts,
            s.first_attempts + s.retries,
            "attempt conservation violated: {s:?}"
        );
    }

    #[test]
    fn patient_clients_commit_and_conserve_requests() {
        // Generous timeout: clients behave like slightly richer terminals.
        let mut sim = Simulator::new(
            small_sys(20, 7),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        sim.set_clients(client_pool(20, 60_000.0));
        let stats = sim.run(20_000.0);
        let s = sim.client_stats().expect("client mode");
        assert!(stats.commits > 100, "only {} commits", stats.commits);
        assert_eq!(s.committed, stats.commits, "every commit is a client commit");
        assert_eq!(s.timeouts, 0, "nobody should time out at this patience");
        assert_eq!(s.retries, 0);
        assert_client_conservation(&sim);
    }

    #[test]
    fn impatient_clients_time_out_retry_and_conserve() {
        // Tight timeout against a tiny gate: timeouts and retries flow.
        let mut sim = Simulator::new(
            small_sys(16, 11),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(2),
            None,
        );
        sim.set_record_optimum(false);
        let mut cfg = client_pool(16, 120.0);
        cfg.retry = RetryPolicy::Backoff {
            base_ms: 40.0,
            factor: 2.0,
            max_ms: 500.0,
            jitter: 0.5,
        };
        cfg.max_retries = 2;
        sim.set_clients(cfg);
        sim.run(20_000.0);
        let s = sim.client_stats().expect("client mode");
        assert!(s.timeouts > 0, "expected timeouts: {s:?}");
        assert!(s.retries > 0, "expected retries: {s:?}");
        assert!(s.abandoned > 0, "expected abandonment: {s:?}");
        assert_client_conservation(&sim);
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 16, "slots conserved");
    }

    #[test]
    fn client_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(
                small_sys(12, 33),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(3),
                None,
            );
            sim.set_record_optimum(false);
            let mut cfg = client_pool(12, 200.0);
            cfg.retry = RetryPolicy::Backoff {
                base_ms: 30.0,
                factor: 2.0,
                max_ms: 400.0,
                jitter: 0.5,
            };
            sim.set_clients(cfg);
            let stats = sim.run(15_000.0);
            (stats, sim.client_stats())
        };
        assert_eq!(run(), run(), "same seed must give identical client runs");
    }

    #[test]
    fn clientless_runs_are_unperturbed_by_the_client_code_path() {
        // The client layer must be invisible when unused: identical
        // stats to a build that never had it. (Golden CSVs pin this
        // repo-wide; this is the in-crate canary.)
        let a = run_fixed(
            15,
            10,
            CcKind::Certification,
            WorkloadConfig::default(),
            10_000.0,
            42,
        );
        assert!(a.commits > 0);
        assert_eq!(a.lost, 0);
    }

    #[test]
    fn hedged_clients_duplicate_work_and_cancel_the_loser() {
        let mut sim = Simulator::new(
            small_sys(24, 5),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(u32::MAX),
            None,
        );
        sim.set_record_optimum(false);
        let mut cfg = client_pool(12, 5_000.0);
        cfg.retry = RetryPolicy::Hedged { delay_ms: 30.0 };
        sim.set_clients(cfg);
        sim.run(20_000.0);
        let s = sim.client_stats().expect("client mode");
        assert!(s.retries > 0, "hedges count as retries: {s:?}");
        assert!(s.committed > 0);
        assert_client_conservation(&sim);
        let census = sim.txn_state_census();
        assert_eq!(census.iter().sum::<usize>(), 24);
    }

    #[test]
    fn budget_retries_are_bounded_by_the_bucket() {
        let mut sim = Simulator::new(
            small_sys(16, 21),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(1),
            None,
        );
        sim.set_record_optimum(false);
        let mut cfg = client_pool(16, 80.0);
        cfg.retry = RetryPolicy::Budget {
            per_commit: 0.1,
            burst: 4.0,
            delay_ms: 25.0,
        };
        cfg.max_retries = 100;
        sim.set_clients(cfg);
        sim.run(15_000.0);
        let s = sim.client_stats().expect("client mode");
        assert_client_conservation(&sim);
        // The bucket caps retry amplification: retries can never exceed
        // initial burst + per_commit × commits (within the window,
        // re-based at warm-up, so compare against the cumulative form).
        assert!(
            (s.retries as f64) <= 4.0 + 0.1 * (s.committed as f64) + (s.shed as f64) + 1.0
                || s.retries < s.timeouts,
            "retries outran the token bucket: {s:?}"
        );
        assert!(s.abandoned > 0, "empty bucket must abandon: {s:?}");
    }

    #[test]
    fn retry_shedding_bounces_retries_at_a_saturated_gate() {
        let mut sim = Simulator::new(
            small_sys(16, 13),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(1),
            None,
        );
        sim.set_record_optimum(false);
        let mut cfg = client_pool(16, 100.0);
        cfg.shed_retries = true;
        cfg.max_retries = 3;
        sim.set_clients(cfg);
        sim.run(15_000.0);
        let s = sim.client_stats().expect("client mode");
        assert!(s.shed > 0, "a bound of 1 must shed retries: {s:?}");
        assert_client_conservation(&sim);
    }

    #[test]
    fn latency_feedback_stretches_think_and_lowers_offered_load() {
        let offered = |gain: f64| {
            let mut sim = Simulator::new(
                small_sys(16, 17),
                WorkloadConfig::default(),
                CcKind::Certification,
                no_control(2),
                None,
            );
            sim.set_record_optimum(false);
            let mut cfg = client_pool(16, 2_000.0);
            cfg.feedback = LatencyFeedback {
                gain,
                reference_ms: 100.0,
                weight: 0.2,
            };
            sim.set_clients(cfg);
            sim.run(20_000.0);
            sim.client_stats().expect("client mode").issued
        };
        let patient = offered(0.0);
        let deferring = offered(4.0);
        assert!(
            deferring < patient,
            "feedback gain must reduce issued requests: {deferring} !< {patient}"
        );
    }

    #[test]
    fn client_trajectories_record_interval_deltas_only_in_client_mode() {
        let mut plain = Simulator::new(
            small_sys(10, 3),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(5),
            None,
        );
        plain.set_record_optimum(false);
        plain.run(8_000.0);
        assert!(plain.trajectories().attempts.is_empty());
        assert!(plain.trajectories().retries.is_empty());
        assert!(plain.trajectories().abandons.is_empty());

        let mut sim = Simulator::new(
            small_sys(10, 3),
            WorkloadConfig::default(),
            CcKind::Certification,
            no_control(5),
            None,
        );
        sim.set_record_optimum(false);
        sim.set_clients(client_pool(10, 500.0));
        sim.run(8_000.0);
        let traj = sim.trajectories();
        assert!(!traj.attempts.is_empty());
        assert_eq!(traj.attempts.len(), traj.retries.len());
        assert_eq!(traj.attempts.len(), traj.abandons.len());
    }
}
