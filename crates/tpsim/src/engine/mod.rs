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
//! Every `sample_interval_ms` a `Sample` event has the control loop
//! (`alc_core::control::LoopCore`, which `alc-runtime` embeds too) close
//! the interval's window and its law, if any, pick the gate bound, and
//! records the trajectory points the paper's figures plot.
//!
//! # The slot lifecycle
//!
//! A terminal slot is in one of five states, and every move between them
//! goes through one writer, `Simulator::set_state`, which reads the
//! `LIFECYCLE` table below:
//!
//! ```text
//! state        open spans, outermost first   in CC   may move to (why)
//! Thinking     —                             no      Queued (gate full), Running (admit)
//! Queued       wait                          no      Running (admit), Thinking (cancel)
//! Running      attempt › run                 yes     Blocked (lock wait), RestartWait (abort),
//!                                                    Queued (displaced), Thinking (commit, cancel)
//! Blocked      attempt › run › blocked       yes     Running (resume), RestartWait (abort),
//!                                                    Queued (displaced), Thinking (cancel)
//! RestartWait  attempt › restart-wait        no      Running (restart), Queued (displaced),
//!                                                    Thinking (cancel)
//! ```
//!
//! On an edge the writer ends, innermost first and with the edge's reason
//! as outcome, the spans the old state holds and the new one lacks, then
//! begins what the new state adds; it keeps `cc_active` equal to the
//! number of in-CC slots; and in debug builds it refuses a pair that is
//! not in the table. Phase and stage progress *inside* `Running` is a
//! plain field write: it moves no span and no counter.
//!
//! # Module map
//!
//! * this file: the struct, the run loop, the two chokepoints (the
//!   lifecycle writer `set_state` and the control plane's
//!   `LoopCore::feed`, which every `GateEvent` goes through and which
//!   alone writes the gate log) and the per-event transaction flow, kept
//!   together because it is the hot path;
//! * `setup`: the constructor, the `set_*` calls and the read accessors;
//! * `switch`: drain-and-swap CC switching, the meta policy, faults;
//! * `clients`: the closed-loop client state machine;
//! * `control`: the `Sample` tick, the statistics window, [`RunStats`],
//!   [`Trajectories`];
//! * `trace`: the trace sink and the emission helpers.

mod clients;
mod control;
mod setup;
mod switch;
mod tests;
mod trace;

pub use control::{RunStats, Trajectories};
pub use switch::SwitchEvent;

use alc_core::control::LoopCore;
use alc_core::gatelog::GateEvent;
use alc_des::dist::{Dist, Sample as _};
use alc_des::rng::RngStream;
use alc_des::stats::TimeWeighted;
use alc_des::{Calendar, LaneId, SimTime};
use alc_trace::{name as tname, TraceSink};

use crate::cc::{AccessOutcome, ConcurrencyControl};
use crate::client::{ClientPool, ClientStats};
use crate::config::{ArrivalProcess, CcKind, ControlConfig, SystemConfig};
use crate::gate::SimGate;
use crate::station::{CpuJob, CpuStation};
use crate::txn::{Access, Stage, Txn, TxnState};
use crate::workload::WorkloadConfig;

const THINKING: usize = 0;
const QUEUED: usize = 1;
const RUNNING: usize = 2;
const BLOCKED: usize = 3;
const RESTART_WAIT: usize = 4;

/// The lifecycle table of the module doc, one row per state in the order
/// of [`Simulator::txn_state_census`]: the trace spans a slot in the
/// state holds open (outermost first), whether it is inside the CC layer
/// (counted in `cc_active`), and the states it may move to.
#[rustfmt::skip]
const LIFECYCLE: [(&[&str], bool, &[usize]); 5] = [
    (&[], false, &[QUEUED, RUNNING]),
    (&[tname::WAIT], false, &[RUNNING, THINKING]),
    (&[tname::ATTEMPT, tname::RUN], true, &[BLOCKED, RESTART_WAIT, QUEUED, THINKING]),
    (&[tname::ATTEMPT, tname::RUN, tname::BLOCKED], true, &[RUNNING, RESTART_WAIT, QUEUED, THINKING]),
    (&[tname::ATTEMPT, tname::RESTART_WAIT], false, &[RUNNING, QUEUED, THINKING]),
];

/// The [`LIFECYCLE`] row of `state`.
fn station(state: TxnState) -> usize {
    match state {
        TxnState::Thinking => THINKING,
        TxnState::Queued => QUEUED,
        TxnState::Running { .. } => RUNNING,
        TxnState::Blocked { .. } => BLOCKED,
        TxnState::RestartWait => RESTART_WAIT,
    }
}

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
    /// Scheduled CC-protocol switch to `to`: start draining, swap when
    /// empty.
    CcSwitch { to: CcKind },
    /// Scheduled station fault: change the installed CPU count by `delta`.
    Fault { delta: i32 },
    /// Client mode: client `client` issues an attempt (first attempt when
    /// Thinking, retry when in Backoff). `generation` is the *client's*
    /// tombstone counter, not the transaction slot's.
    ClientIssue { client: usize, generation: u64 },
    /// Client mode: patience expired for the client's in-flight attempt.
    ClientTimeout { client: usize, generation: u64 },
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
    /// Backoff-jitter draws (client mode only).
    retry_jitter: RngStream,
}

/// The calendar lane of each model delay that the spec makes a constant
/// (§7's disk has "constant service times and no contention"); `None`
/// where it gives a distribution that draws.
struct Lanes {
    disk_access: Option<LaneId>,
    disk_init_commit: Option<LaneId>,
    restart: Option<LaneId>,
}

/// Schedules `ev` one draw of `dist` from now and returns the delay:
/// through `lane` if the constructor opened one for this delay, through
/// the rung otherwise. The firing order is the same either way.
#[inline]
fn schedule_after(
    cal: &mut Calendar<Event>,
    lane: Option<LaneId>,
    dist: &Dist,
    rng: &mut RngStream,
    ev: Event,
) -> f64 {
    let delay = dist.sample(rng);
    match lane {
        Some(lane) => cal.schedule_lane(lane, ev),
        None => {
            cal.schedule_in(delay, ev);
        }
    }
    delay
}

/// The §7 transaction processing system simulator.
pub struct Simulator {
    sys: SystemConfig,
    workload: WorkloadConfig,
    control: ControlConfig,
    cal: Calendar<Event>,
    lanes: Lanes,
    txns: Vec<Txn>,
    cc: Box<dyn ConcurrencyControl>,
    cpu: CpuStation,
    gate: SimGate,
    rng: Streams,
    /// Every [`GateEvent`] goes to its `feed`, which alone writes the
    /// gate log; the `Sample` tick closes its window.
    control_loop: LoopCore,
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
    /// [`Simulator::set_cc_switches`] scheduled a switch, so adaptive
    /// selection may not be installed beside it.
    switches_scheduled: bool,
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
    meta: Option<switch::MetaCc>,
    /// Slots in an in-CC state (between `cc.begin` and `cc.commit` /
    /// `abort`). Written by [`Simulator::set_state`] only.
    cc_active: u32,
    /// Restart-delay expiries deferred by an in-progress drain (FIFO).
    parked_restarts: Vec<usize>,
    /// Completed protocol switches (for tests/diagnostics).
    switches_completed: u64,
    /// Reusable buffer for jobs dispatched by a capacity restore.
    fault_scratch: Vec<CpuJob>,
    /// Pool of reusable id buffers for unblocked/admitted lists. Taken by
    /// the handful of sites that need one; returned cleared. Depth equals
    /// the deepest take nesting (2), so steady state allocates nothing.
    scratch_pool: Vec<Vec<usize>>,
    /// Aggregate counters since `window_start` (the end of warm-up).
    window: control::Window,
    window_start: SimTime,
    mpl_avg: TimeWeighted,
    bound_avg: TimeWeighted,
    trajectories: Trajectories,
    optimum_cache: std::collections::BTreeMap<(u32, u32, u32, u32), u32>,
    record_optimum: bool,
    /// Cached Zipf sampler for the hot-spot extension, keyed by the skew
    /// in force when it was built.
    zipf_cache: Option<(f64, alc_des::dist::Zipf)>,
    /// Optional span/event trace sink (see `alc_trace`): per-transaction
    /// lifecycle spans, service bursts, control decisions, CC switches,
    /// faults and client events, stamped with simulated time. `None`
    /// costs nothing and keeps runs byte-identical to untraced ones.
    trace: Option<Box<dyn TraceSink>>,
    /// Closed-loop client pool (`None` = the paper's patient terminals).
    /// Installed once by [`Simulator::set_clients`] before the run.
    clients: Option<ClientPool>,
    /// The client counters at the previous sample, for the per-interval
    /// deltas the client trajectory series record.
    last_client: ClientStats,
}

impl Simulator {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.cal.now()
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
            self.trajectories
                .reserve(samples, self.clients.is_some(), self.record_optimum);
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

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Submit(i) => self.on_submit(i),
            Event::Arrival => self.on_arrival(),
            Event::CpuDone { txn, generation } => self.on_cpu_done(txn, generation),
            Event::DiskDone { txn, generation } => self.on_disk_done(txn, generation),
            Event::RestartBegin { txn, generation } => self.on_restart(txn, generation),
            Event::Sample => self.on_sample(),
            Event::CcSwitch { to } => self.begin_cc_switch(to),
            Event::Fault { delta } => self.on_fault(delta),
            Event::ClientIssue { client, generation } => self.on_client_issue(client, generation),
            Event::ClientTimeout { client, generation } => {
                self.on_client_timeout(client, generation)
            }
        }
    }

    // ------------------------------------------------------------------
    // The lifecycle chokepoint (the control plane's is `LoopCore::feed`)
    // ------------------------------------------------------------------

    /// The lifecycle writer of the module doc: the only place a slot
    /// changes lifecycle state. `why` is the outcome of the spans it ends.
    fn set_state(&mut self, i: usize, to: TxnState, why: &'static str) {
        let (from, target) = (self.txns[i].state, station(to));
        let (old_spans, was_in_cc, next) = LIFECYCLE[station(from)];
        let (new_spans, is_in_cc, _) = LIFECYCLE[target];
        debug_assert!(
            next.contains(&target),
            "slot {i}: {from:?} -> {to:?} ({why}) is not a lifecycle edge"
        );
        self.txns[i].state = to;
        match (was_in_cc, is_in_cc) {
            (false, true) => self.cc_active += 1,
            (true, false) => self.cc_active -= 1,
            _ => {}
        }
        if self.trace.is_some() {
            self.tr_spans(i, old_spans, new_spans, why);
        }
    }

    /// The in-system population changed: tell the window average, the
    /// control plane and the trace.
    fn note_mpl(&mut self) {
        let now = self.now();
        let n = self.gate.in_system();
        self.mpl_avg.set(now, f64::from(n));
        self.control_loop.feed(&GateEvent::Mpl {
            at_ms: now.millis(),
            in_system: n,
        });
        self.tr_counter(tname::MPL, f64::from(n));
    }

    // ------------------------------------------------------------------
    // Per-event transaction flow
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

    /// Open mode: claim a free slot for the arriving transaction (or
    /// count it lost) and schedule the next arrival.
    fn on_arrival(&mut self) {
        let ArrivalProcess::Open { interarrival } = self.sys.arrival else {
            debug_assert!(false, "Arrival event in closed mode");
            return;
        };
        match self.free_slots.pop() {
            Some(i) => self.on_submit(i),
            None => self.window.lost += 1,
        }
        self.schedule_arrival(&interarrival);
    }

    /// Open mode: schedules the next arrival one draw of `interarrival`
    /// from now. The workload's arrival-rate factor modulates the offered
    /// load: dividing the delay by a(t) multiplies the instantaneous rate.
    fn schedule_arrival(&mut self, interarrival: &Dist) {
        let delay = interarrival.sample(&mut self.rng.arrival)
            / self.workload.arrival_rate_factor.value(self.now().millis());
        self.cal.schedule_in(delay, Event::Arrival);
    }

    /// Schedules `ev` one think time from now: a draw of the think time,
    /// stretched by the workload's think-time factor at this instant.
    #[inline]
    fn schedule_think(&mut self, ev: Event) {
        let think = self.sys.think.sample(&mut self.rng.think)
            * self.workload.think_time_factor.value(self.now().millis());
        self.cal.schedule_in(think, ev);
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
        debug_assert_eq!(self.txns[i].state, TxnState::Thinking);
        self.txns[i].submitted_at = self.now();
        if self.gate.arrive(i) {
            self.note_mpl();
            self.admit(i);
        } else {
            self.set_state(i, TxnState::Queued, "queue");
        }
    }

    /// Starts every slot the gate just released from its queue. The gate
    /// has counted the whole batch in already; a departure or a released
    /// hold still re-notes that population once per slot (`note_each`),
    /// the sample tick does not. The checked-in gate logs carry those
    /// repeated lines, so dropping them is a rebless.
    fn admit_released(&mut self, admitted: Vec<usize>, note_each: bool) {
        for &a in &admitted {
            if note_each {
                self.note_mpl();
            }
            self.admit(a);
        }
        self.put_scratch(admitted);
    }

    /// An admitted slot left the system (commit, or a client cancelling
    /// its attempt): free its MPL slot and admit waiters.
    fn depart(&mut self) {
        let mut admitted = self.take_scratch();
        self.gate.depart_into(&mut admitted);
        self.note_mpl();
        self.admit_released(admitted, true);
    }

    /// Admission: a fresh instance starts its first run.
    fn admit(&mut self, i: usize) {
        self.draw_instance(i);
        self.begin_run(i, "admit");
    }

    /// Draws an instance (access set, mix) from the workload schedules at
    /// the current time. The slot's `items` buffer is refilled in place,
    /// so a warmed-up run creates instances without touching the
    /// allocator.
    fn draw_instance(&mut self, i: usize) {
        let w = self.workload.at(self.now().millis());
        let is_query = self.rng.mix.chance(w.query_frac);
        self.draw_access_set(w.k as usize, w.access_skew);
        let items = &mut self.txns[i].items;
        items.clear();
        items.reserve_exact(self.access_scratch.len());
        for &item in &self.access_scratch {
            let write = !is_query && self.rng.mix.chance(w.write_frac);
            items.push(Access::new(item, write));
        }
        self.txns[i].is_query = is_query;
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

    /// (Re)starts execution of the current instance from phase 0; `why`
    /// closes whatever wait the slot was in (`"admit"` or `"restart"`).
    fn begin_run(&mut self, i: usize, why: &'static str) {
        self.ts_counter += 1;
        let ts = self.ts_counter;
        self.txns[i].generation += 1;
        self.txns[i].ts = ts;
        self.cc.begin(i, ts);
        let phase0 = TxnState::Running {
            phase: 0,
            stage: Stage::Cpu,
        };
        self.set_state(i, phase0, why);
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
            self.start_burst(job);
        }
    }

    /// A CPU server took `job`: trace the burst and schedule its end.
    fn start_burst(&mut self, job: CpuJob) {
        self.tr_burst(tname::CPU, job.txn, job.burst_ms);
        self.cal.schedule_in(
            job.burst_ms,
            Event::CpuDone {
                txn: job.txn,
                generation: job.generation,
            },
        );
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
            self.start_burst(job);
        }
        if self.txns[i].generation != generation {
            return; // burst belonged to an aborted run
        }
        // CPU half done → disk half. Access phases hit (mostly cached)
        // data pages; init/commit phases pay the fixed I/O (catalog, log).
        if let TxnState::Running { phase, .. } = self.txns[i].state {
            // Stage progress inside Running: no lifecycle edge.
            self.txns[i].state = TxnState::Running {
                phase,
                stage: Stage::Disk,
            };
            let k = self.txns[i].k();
            let (lane, dist) = if phase >= 1 && phase <= k {
                (self.lanes.disk_access, &self.sys.disk_access)
            } else {
                (self.lanes.disk_init_commit, &self.sys.disk_init_commit)
            };
            let done = Event::DiskDone { txn: i, generation };
            let d = schedule_after(&mut self.cal, lane, dist, &mut self.rng.disk, done);
            self.tr_burst(tname::DISK, i, d);
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
        // Phase progress inside Running: no lifecycle edge.
        self.txns[i].state = TxnState::Running {
            phase,
            stage: Stage::Cpu,
        };
        if phase >= 1 && phase <= k {
            let access = self.txns[i].items[(phase - 1) as usize];
            match self.cc.access(i, access.item(), access.is_write()) {
                AccessOutcome::Granted => self.request_cpu(i),
                AccessOutcome::Blocked => {
                    self.set_state(i, TxnState::Blocked { phase }, "block");
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
        self.window.conflicts += v.conflicts;
        if !v.ok {
            self.control_loop.feed(&GateEvent::Abort {
                at_ms: now.millis(),
                conflicts: v.conflicts,
            });
            self.abort_run(i, RestartMode::Delayed);
            return;
        }
        let mut unblocked = self.take_scratch();
        self.cc.commit_into(i, &mut unblocked);
        let response = now - self.txns[i].submitted_at;
        self.control_loop.feed(&GateEvent::Commit {
            at_ms: now.millis(),
            response_ms: response,
            conflicts: v.conflicts,
        });
        self.window.response.push(response);
        self.window.commits += 1;
        // Departure: back to the terminal (closed) or out of the system,
        // returning the slot (open). In client mode the client settles
        // the request instead.
        self.set_state(i, TxnState::Thinking, "commit");
        if self.clients.is_some() {
            self.on_client_commit(i);
        } else {
            match self.sys.arrival {
                ArrivalProcess::Closed => self.schedule_think(Event::Submit(i)),
                ArrivalProcess::Open { .. } => {
                    self.free_slots.push(i);
                }
            }
        }
        self.depart();
        self.resume_all(unblocked);
    }

    /// Resumes the slots whose lock wait the CC layer just ended.
    fn resume_all(&mut self, unblocked: Vec<usize>) {
        for &u in &unblocked {
            let TxnState::Blocked { phase } = self.txns[u].state else {
                debug_assert!(false, "unblock of a non-blocked transaction");
                continue;
            };
            let granted = TxnState::Running {
                phase,
                stage: Stage::Cpu,
            };
            self.set_state(u, granted, "resume");
            self.request_cpu(u);
        }
        self.put_scratch(unblocked);
    }

    /// Ends slot `i`'s current run without a commit. Displacement may
    /// hit a slot already out of the CC layer (a `RestartWait` between
    /// abort and restart); the lifecycle writer sorts out which spans and
    /// counts that closes.
    fn abort_run(&mut self, i: usize, mode: RestartMode) {
        let mut unblocked = self.take_scratch();
        self.cc.abort_into(i, &mut unblocked);
        self.window.aborts += 1;
        self.txns[i].generation += 1; // kill in-flight events
        match mode {
            RestartMode::Delayed => {
                self.set_state(i, TxnState::RestartWait, "abort");
                let generation = self.txns[i].generation;
                schedule_after(
                    &mut self.cal,
                    self.lanes.restart,
                    &self.sys.restart_delay,
                    &mut self.rng.restart,
                    Event::RestartBegin { txn: i, generation },
                );
            }
            RestartMode::Displaced => {
                self.window.displaced += 1;
                self.set_state(i, TxnState::Queued, "displaced");
                self.gate.displace(i);
                self.note_mpl();
            }
        }
        self.resume_all(unblocked);
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
    /// the expiry): fresh access set from the *current* workload when
    /// `resample_on_restart` (a re-planned run), identical retry otherwise.
    fn restart_now(&mut self, i: usize) {
        if self.sys.resample_on_restart {
            self.draw_instance(i);
        }
        self.begin_run(i, "restart");
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
