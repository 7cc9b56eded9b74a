//! Measurement and control: the `Sample` tick (the control loop closes
//! its window and decides → move the gate → displace), the statistics
//! window, and the result types the run reports.

use alc_core::control::Decision;
use alc_des::series::TimeSeries;
use alc_des::stats::Welford;
use alc_des::SimTime;
use alc_trace::{cat as tcat, name as tname, Args as TraceArgs};

use super::switch::SwitchEvent;
use super::{Event, RestartMode, Simulator};
use crate::client::ClientStats;

/// Aggregate statistics of a (post-warm-up) run window.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// plus retries). Empty for runs without a client pool,
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

    /// Pre-sizes the series a run records for `additional` further
    /// samples: the client series only for a run with a client pool, the
    /// optimum only for a run that records it. A series the run leaves
    /// empty gets no buffer.
    pub(super) fn reserve(&mut self, additional: usize, clients: bool, optimum: bool) {
        self.bound.reserve(additional);
        self.observed_mpl.reserve(additional);
        self.throughput.reserve(additional);
        self.k.reserve(additional);
        self.conflict_ratio.reserve(additional);
        if optimum {
            self.optimum.reserve(additional);
        }
        if clients {
            self.attempts.reserve(additional);
            self.retries.reserve(additional);
            self.abandons.reserve(additional);
        }
    }
}

/// The aggregate counters of one statistics window; the end of warm-up
/// starts a fresh one.
#[derive(Default)]
pub(super) struct Window {
    pub(super) commits: u64,
    pub(super) aborts: u64,
    pub(super) conflicts: u64,
    pub(super) displaced: u64,
    pub(super) lost: u64,
    pub(super) response: Welford,
}

impl Simulator {
    /// Restarts the aggregate-statistics window (end of warm-up).
    pub fn reset_window(&mut self) {
        let now = self.now();
        self.window = Window::default();
        self.window_start = now;
        self.mpl_avg.reset(now);
        self.bound_avg.reset(now);
        self.cpu.reset_stats(now);
        if let Some(pool) = &mut self.clients {
            // Re-base the client counters so the conservation identities
            // (`issued == committed + abandoned + in_flight`,
            // `attempts == first_attempts + retries`) keep holding over
            // the fresh window: outstanding requests count as issued.
            let in_flight = pool.stats.in_flight;
            pool.stats = ClientStats {
                issued: in_flight,
                in_flight,
                ..ClientStats::default()
            };
        }
        self.last_client = ClientStats::default();
    }

    pub(super) fn stats_at(&self, t_end: SimTime) -> RunStats {
        let w = &self.window;
        let duration = (t_end - self.window_start).max(f64::EPSILON);
        let finished = w.commits + w.aborts;
        RunStats {
            duration_ms: duration,
            commits: w.commits,
            aborts: w.aborts,
            throughput_per_sec: w.commits as f64 * 1000.0 / duration,
            mean_response_ms: w.response.mean(),
            mean_mpl: self.mpl_avg.average(t_end),
            mean_bound: self.bound_avg.average(t_end),
            abort_ratio: if finished == 0 {
                0.0
            } else {
                w.aborts as f64 / finished as f64
            },
            cpu_utilization: self.cpu.mean_utilization(t_end),
            displaced: w.displaced,
            conflicts_per_commit: if w.commits == 0 {
                0.0
            } else {
                w.conflicts as f64 / w.commits as f64
            },
            lost: w.lost,
        }
    }

    /// The measurement / control tick: the control loop closes its
    /// window and, if it has a law, the gate moves to the law's bound.
    pub(super) fn on_sample(&mut self) {
        let now = self.now();
        let queued = self.gate.queue_len() as u32;
        let (window, decision) = self.control_loop.close_window(now.millis(), queued);
        let m = window.measurement;
        if let Some(Decision { bound, .. }) = decision {
            self.bound_avg.set(now, f64::from(bound).min(1e9));
            self.tr_instant(tname::GATE_DECISION, tcat::GATE, TraceArgs::Bound(bound));
            self.tr_counter(tname::BOUND, f64::from(bound));
            let mut admitted = self.take_scratch();
            self.gate.set_bound_into(bound, &mut admitted);
            self.note_mpl();
            self.admit_released(admitted, false);
            if self.control.displacement {
                // §4.3 displacement: abort in-system transactions per the
                // configured victim policy until the new bound holds.
                while self.gate.excess() > 0 {
                    match self.select_displacement_victim() {
                        Some(v) => self.abort_run(v, RestartMode::Displaced),
                        None => break,
                    }
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
            let (s, last) = (pool.stats, self.last_client);
            self.trajectories
                .attempts
                .push(now, (s.attempts - last.attempts) as f64);
            self.trajectories
                .retries
                .push(now, (s.retries - last.retries) as f64);
            self.trajectories
                .abandons
                .push(now, (s.abandoned - last.abandoned) as f64);
            self.last_client = s;
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
        self.meta_step(&m);
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
}
