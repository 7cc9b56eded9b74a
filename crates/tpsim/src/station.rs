//! Physical resource stations (§7, Figure 11).
//!
//! * [`CpuStation`] — "a homogeneous multiprocessor system serving a
//!   shared queue": `m` servers, one FIFO ready queue, non-preemptive
//!   bursts. Jobs belonging to aborted runs are lazily skipped via a
//!   generation check when they reach the head of the queue.
//! * The disk ("constant service times and no contention") and the
//!   terminals are pure delays — they need no station type, the engine
//!   schedules their completion events directly.

use std::collections::VecDeque;

use alc_des::stats::TimeWeighted;
use alc_des::SimTime;

/// A job enqueued at the CPU: transaction slot, run generation (for lazy
/// abort of queued work), and the pre-drawn burst length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuJob {
    /// Transaction slot the burst belongs to.
    pub txn: usize,
    /// Run generation; stale generations are discarded at dispatch.
    pub generation: u64,
    /// Burst length in milliseconds.
    pub burst_ms: f64,
}

/// The multiprocessor CPU station.
pub struct CpuStation {
    servers: u32,
    busy: u32,
    queue: VecDeque<CpuJob>,
    utilization: TimeWeighted,
    /// Time-weighted capacity, consulted by [`CpuStation::mean_utilization`]
    /// only once a fault event has varied the server count (`varied`): the
    /// constant-capacity path must keep dividing by the exact integer so
    /// fault-free runs reproduce bit-identical statistics.
    capacity_avg: TimeWeighted,
    capacity_varied: bool,
}

impl CpuStation {
    /// Creates a station with `servers` CPUs.
    pub fn new(servers: u32, t0: SimTime) -> Self {
        Self::with_queue_capacity(servers, t0, 0)
    }

    /// Creates a station with the ready queue pre-sized for `cap` jobs
    /// (the engine passes the terminal count: the queue can never exceed
    /// the transaction population, so steady state never reallocates).
    pub fn with_queue_capacity(servers: u32, t0: SimTime, cap: usize) -> Self {
        assert!(servers > 0);
        CpuStation {
            servers,
            busy: 0,
            queue: VecDeque::with_capacity(cap),
            utilization: TimeWeighted::new(t0, 0.0),
            capacity_avg: TimeWeighted::new(t0, f64::from(servers)),
            capacity_varied: false,
        }
    }

    /// Servers currently installed (may be 0 during a total outage).
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Fault event: changes the installed server count to `servers`.
    ///
    /// Shrinking never preempts — busy servers finish their current
    /// bursts and simply aren't re-filled until the population drops
    /// below the new capacity. Growing dispatches queued live jobs onto
    /// the new servers immediately; they are appended to `started` and
    /// the caller schedules their completions (exactly the
    /// [`CpuStation::offer`] contract).
    pub fn set_servers_into(
        &mut self,
        now: SimTime,
        servers: u32,
        is_stale: impl Fn(&CpuJob) -> bool,
        started: &mut Vec<CpuJob>,
    ) {
        self.capacity_varied = true;
        self.capacity_avg.set(now, f64::from(servers));
        self.servers = servers;
        while self.busy < self.servers {
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            if is_stale(&job) {
                continue;
            }
            self.busy += 1;
            started.push(job);
        }
        self.utilization.set(now, f64::from(self.busy));
    }

    /// Offers a job. Returns `Some(job)` if a server is free and the job
    /// starts service now (the caller schedules its completion); `None`
    /// if it was queued.
    pub fn offer(&mut self, now: SimTime, job: CpuJob) -> Option<CpuJob> {
        if self.busy < self.servers {
            self.busy += 1;
            self.utilization.set(now, f64::from(self.busy));
            Some(job)
        } else {
            self.queue.push_back(job);
            None
        }
    }

    /// A burst finished: frees its server and dispatches the next live
    /// queued job, if any. `is_stale` decides whether a queued job still
    /// belongs to a live run. Returns the job now entering service.
    pub fn complete(
        &mut self,
        now: SimTime,
        is_stale: impl Fn(&CpuJob) -> bool,
    ) -> Option<CpuJob> {
        debug_assert!(self.busy > 0, "completion without a busy server");
        self.busy -= 1;
        // A fault may have shrunk the capacity below the busy count; in
        // that case the freed server is one of the killed ones and must
        // not pick up new work. (With constant capacity the guard is
        // always true here: a non-empty queue implies a full station.)
        if self.busy < self.servers {
            while let Some(job) = self.queue.pop_front() {
                if is_stale(&job) {
                    continue;
                }
                self.busy += 1;
                self.utilization.set(now, f64::from(self.busy));
                return Some(job);
            }
        }
        self.utilization.set(now, f64::from(self.busy));
        None
    }

    /// Busy servers right now.
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Jobs waiting in the ready queue (may include stale entries).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Time-averaged utilization (busy servers / installed servers).
    /// Under fault events the divisor is the time-weighted installed
    /// capacity; fault-free runs keep the exact constant divisor.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        if self.capacity_varied {
            let cap = self.capacity_avg.average(now);
            if cap <= 0.0 {
                return 0.0;
            }
            self.utilization.average(now) / cap
        } else {
            self.utilization.average(now) / f64::from(self.servers)
        }
    }

    /// Restarts the running averages (end of warm-up).
    pub fn reset_stats(&mut self, now: SimTime) {
        self.utilization.reset(now);
        self.capacity_avg.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::new(ms)
    }

    fn job(txn: usize, generation: u64) -> CpuJob {
        CpuJob {
            txn,
            generation,
            burst_ms: 10.0,
        }
    }

    #[test]
    fn serves_up_to_capacity_then_queues() {
        let mut cpu = CpuStation::new(2, t(0.0));
        assert!(cpu.offer(t(0.0), job(0, 0)).is_some());
        assert!(cpu.offer(t(0.0), job(1, 0)).is_some());
        assert!(cpu.offer(t(0.0), job(2, 0)).is_none());
        assert_eq!(cpu.busy(), 2);
        assert_eq!(cpu.queued(), 1);
    }

    #[test]
    fn completion_dispatches_fifo() {
        let mut cpu = CpuStation::new(1, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        cpu.offer(t(0.0), job(1, 0));
        cpu.offer(t(0.0), job(2, 0));
        let next = cpu.complete(t(10.0), |_| false).unwrap();
        assert_eq!(next.txn, 1);
        let next = cpu.complete(t(20.0), |_| false).unwrap();
        assert_eq!(next.txn, 2);
        assert!(cpu.complete(t(30.0), |_| false).is_none());
        assert_eq!(cpu.busy(), 0);
    }

    #[test]
    fn stale_jobs_are_skipped_at_dispatch() {
        let mut cpu = CpuStation::new(1, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        cpu.offer(t(0.0), job(1, 7)); // will be stale
        cpu.offer(t(0.0), job(2, 0));
        let next = cpu
            .complete(t(10.0), |j| j.generation == 7)
            .expect("live job expected");
        assert_eq!(next.txn, 2);
        assert_eq!(cpu.queued(), 0);
    }

    #[test]
    fn all_stale_leaves_server_idle() {
        let mut cpu = CpuStation::new(1, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        cpu.offer(t(0.0), job(1, 7));
        assert!(cpu.complete(t(10.0), |j| j.generation == 7).is_none());
        assert_eq!(cpu.busy(), 0);
    }

    #[test]
    fn utilization_average() {
        let mut cpu = CpuStation::new(2, t(0.0));
        cpu.offer(t(0.0), job(0, 0)); // busy 1 from t=0
        cpu.complete(t(50.0), |_| false); // idle from t=50
        // busy-server integral: 1 * 50 over [0, 100] => mean 0.5 servers
        // => utilization 0.25 of 2 servers.
        assert!((cpu.mean_utilization(t(100.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shrinking_capacity_retires_servers_as_they_free() {
        let mut cpu = CpuStation::new(3, t(0.0));
        for i in 0..3 {
            assert!(cpu.offer(t(0.0), job(i, 0)).is_some());
        }
        cpu.offer(t(0.0), job(3, 0)); // queued
        let mut started = Vec::new();
        cpu.set_servers_into(t(5.0), 1, |_| false, &mut started);
        assert!(started.is_empty(), "shrink must not start work");
        assert_eq!(cpu.servers(), 1);
        // Completions above the new capacity retire servers instead of
        // dispatching the queued job.
        assert!(cpu.complete(t(10.0), |_| false).is_none());
        assert!(cpu.complete(t(11.0), |_| false).is_none());
        assert_eq!(cpu.busy(), 1);
        assert_eq!(cpu.queued(), 1);
        // The last completion frees the one live server: dispatch resumes.
        let next = cpu.complete(t(12.0), |_| false).expect("dispatch");
        assert_eq!(next.txn, 3);
    }

    #[test]
    fn growing_capacity_dispatches_queued_jobs() {
        let mut cpu = CpuStation::new(1, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        cpu.offer(t(0.0), job(1, 0));
        cpu.offer(t(0.0), job(2, 9)); // stale
        cpu.offer(t(0.0), job(3, 0));
        let mut started = Vec::new();
        cpu.set_servers_into(t(5.0), 3, |j| j.generation == 9, &mut started);
        assert_eq!(
            started.iter().map(|j| j.txn).collect::<Vec<_>>(),
            vec![1, 3],
            "stale job skipped, live jobs started in FIFO order"
        );
        assert_eq!(cpu.busy(), 3);
        assert_eq!(cpu.queued(), 0);
    }

    #[test]
    fn zero_capacity_queues_everything_until_restart() {
        let mut cpu = CpuStation::new(2, t(0.0));
        let mut started = Vec::new();
        cpu.set_servers_into(t(0.0), 0, |_| false, &mut started);
        assert!(cpu.offer(t(1.0), job(0, 0)).is_none());
        assert_eq!(cpu.busy(), 0);
        cpu.set_servers_into(t(2.0), 2, |_| false, &mut started);
        assert_eq!(started.len(), 1);
        assert_eq!(cpu.busy(), 1);
    }

    #[test]
    fn varied_capacity_utilization_uses_time_weighted_divisor() {
        let mut cpu = CpuStation::new(2, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        // [0, 100): 2 servers, 1 busy; [100, 200): 1 server, 1 busy.
        let mut started = Vec::new();
        cpu.set_servers_into(t(100.0), 1, |_| false, &mut started);
        // busy integral 1*200; capacity integral 2*100 + 1*100 = 300.
        assert!((cpu.mean_utilization(t(200.0)) - 200.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn reset_stats_starts_fresh_window() {
        let mut cpu = CpuStation::new(1, t(0.0));
        cpu.offer(t(0.0), job(0, 0));
        cpu.reset_stats(t(100.0));
        // Still busy the whole post-reset window.
        assert!((cpu.mean_utilization(t(200.0)) - 1.0).abs() < 1e-12);
    }
}
