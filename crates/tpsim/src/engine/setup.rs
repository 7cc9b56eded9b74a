//! Building and configuring a [`Simulator`]: the constructor, the
//! `set_*` calls made before a run, and the read accessors.

use alc_core::control::LoopCore;
use alc_core::controller::LoadController;
use alc_core::gatelog::GateLogSink;
use alc_core::law::PaperLaw;
use alc_core::meta::MetaPolicy;
use alc_des::dist::{Dist, Sample as _};
use alc_des::rng::SeedFactory;
use alc_des::stats::TimeWeighted;
use alc_des::{Calendar, SimTime};

use super::control::Window;
use super::switch::MetaCc;
use super::{station, Event, Lanes, Simulator, Streams, Trajectories};
use crate::cc::make_cc;
use crate::client::{ClientConfig, ClientPool, ClientStats};
use crate::config::{ArrivalProcess, CcKind, ControlConfig, SystemConfig};
use crate::gate::SimGate;
use crate::station::CpuStation;
use crate::txn::Txn;
use crate::workload::WorkloadConfig;

impl Simulator {
    /// Builds a simulator. `controller = None` runs with the static
    /// `control.initial_bound` (use `u32::MAX` for "no control"). Panics
    /// exactly when [`SystemConfig::check`], [`WorkloadConfig::check`] or
    /// [`ControlConfig::check`] errs.
    pub fn new(
        sys: SystemConfig,
        workload: WorkloadConfig,
        cc_kind: CcKind,
        control: ControlConfig,
        controller: Option<Box<dyn LoadController>>,
    ) -> Self {
        sys.check().expect("invalid system configuration");
        workload.check().expect("invalid workload");
        control.check().expect("invalid control configuration");
        let seeds = SeedFactory::new(sys.seed);
        let t0 = SimTime::ZERO;
        let initial_bound = controller
            .as_ref()
            .map_or(control.initial_bound, |c| c.current_bound());
        let control_loop = match controller {
            // alc-lint: allow(hot-alloc, reason="construction-time; one law per run")
            Some(c) => LoopCore::new(Box::new(PaperLaw::new(c)), control.indicator),
            None => LoopCore::without_law(control.indicator),
        };
        let slots = sys.terminals as usize;
        // Room to file one event per slot beside a Sample and an Arrival.
        // A slot has at most one live event in flight and the lanes take
        // about half of those, which leaves the other half of the room to
        // the stale events of aborted runs. A model that files more (no
        // constant delays, a client pool's timers) finds its size during
        // warm-up.
        let mut cal = Calendar::with_capacity(slots + 8);
        // A lane for each delay the spec makes a constant. Nothing else
        // selects them, and both paths run in every simulation: CPU
        // bursts and think times stay on the rung.
        let mut lane = |delay: &Dist| delay.as_constant().map(|ms| cal.lane(ms));
        let lanes = Lanes {
            disk_access: lane(&sys.disk_access),
            disk_init_commit: lane(&sys.disk_init_commit),
            restart: lane(&sys.restart_delay),
        };
        let mut sim = Simulator {
            cal,
            lanes,
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
            control_loop,
            ts_counter: 0,
            free_slots: Vec::with_capacity(slots),
            events: 0,
            access_scratch: Vec::with_capacity(16),
            scratch_pool: Vec::with_capacity(4),
            window: Window::default(),
            window_start: t0,
            mpl_avg: TimeWeighted::new(t0, 0.0),
            bound_avg: TimeWeighted::new(t0, f64::from(initial_bound).min(1e9)),
            trajectories: Trajectories::new(),
            optimum_cache: std::collections::BTreeMap::new(),
            record_optimum: true,
            zipf_cache: None,
            trace: None,
            clients: None,
            last_client: ClientStats::default(),
            sys,
            workload,
            control,
        };
        match sim.sys.arrival {
            ArrivalProcess::Closed => {
                // Terminals start thinking; their first submissions
                // stagger naturally through the think-time distribution.
                let factor = sim.workload.think_time_factor.value(t0.millis());
                for i in 0..sim.sys.terminals as usize {
                    let delay = sim.sys.think.sample(&mut sim.rng.think) * factor;
                    sim.cal.schedule(t0 + delay, Event::Submit(i));
                }
            }
            ArrivalProcess::Open { interarrival } => {
                sim.free_slots = (0..sim.sys.terminals as usize).rev().collect(); // alc-lint: allow(hot-alloc, reason="one-time init of the free-slot stack at simulation start")
                let delay = interarrival.sample(&mut sim.rng.arrival)
                    / sim.workload.arrival_rate_factor.value(t0.millis());
                sim.cal.schedule(t0 + delay, Event::Arrival);
            }
        }
        sim.cal
            .schedule(t0 + sim.control.sample_interval_ms, Event::Sample);
        sim
    }

    /// Records the (potentially costly) analytic-optimum trajectory when
    /// `on`, and skips it otherwise; it is recorded by default.
    pub fn set_record_optimum(&mut self, on: bool) {
        self.record_optimum = on;
    }

    /// Hands a gate-log sink to the control loop. From then on every
    /// event it is fed (MPL change, commit, abort) and every decision of
    /// its law reaches the sink as a
    /// [`GateEvent`](alc_core::gatelog::GateEvent), making the run
    /// replayable: the recorded stream fed through an identically built
    /// loop reproduces the decision sequence bit-for-bit. Call before
    /// running; recording does not perturb the simulation.
    pub fn set_gate_log(&mut self, sink: Box<dyn GateLogSink>) {
        self.control_loop.set_gate_log(sink);
    }

    /// Removes and returns the installed gate-log sink (typically after
    /// the run, to extract the recorded events).
    pub fn take_gate_log(&mut self) -> Option<Box<dyn GateLogSink>> {
        self.control_loop.take_gate_log()
    }

    /// Installs a closed-loop client pool: impatient clients replace the
    /// paper's patient terminals. Each client owns one transaction slot,
    /// cycles through think → issue → wait, and on timeout cancels its
    /// in-flight attempt and consults its retry policy. Timeouts and shed retries
    /// feed the control loop (and the gate log) as aborts, so retry-aware
    /// control laws observe the storm they must clamp. Call once, before
    /// the run; panics when [`ClientConfig::check`] errs.
    pub fn set_clients(&mut self, cfg: ClientConfig) {
        cfg.check(&self.sys).expect("invalid client pool");
        assert!(self.clients.is_none(), "set_clients may only be called once");
        // The constructor's per-terminal Submit events are inert in
        // client mode (see `on_submit`); each client draws its own first
        // think delay instead.
        let t0 = self.now();
        let factor = self.workload.think_time_factor.value(t0.millis());
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
    /// interval the policy sees the interval's measurement (conflict
    /// ratio, restart rate, throughput) and may pick another
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
    #[cfg(test)]
    pub(crate) fn current_cc(&self) -> CcKind {
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
    #[cfg(test)]
    pub(crate) fn cpu_servers(&self) -> u32 {
        self.cpu.servers()
    }

    /// Census of transaction-slot states
    /// `[thinking, queued, running, blocked, restart-wait]` — the
    /// conservation oracle for the switch/fault invariant tests (the sum
    /// is always the slot count; nothing is lost or double-counted).
    pub fn txn_state_census(&self) -> [usize; 5] {
        let mut census = [0usize; 5];
        for t in &self.txns {
            census[station(t.state)] += 1;
        }
        census
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
}
