//! The admission-control gate (§4.3).
//!
//! "The admission to the transaction processing system is controlled by a
//! 'gate' that accepts an arriving transaction if and only if the actual
//! load n is below the current threshold n*. Otherwise the transaction has
//! to wait in a FCFS-queue. Waiting transactions are admitted as soon as
//! n < n* holds again."
//!
//! [`AdaptiveGate`] is that mechanism as a real, thread-safe concurrency
//! limiter — usable in an actual server, not only in the simulator (which
//! has its own event-driven gate in `alc-tpsim`). Properties:
//!
//! * **FCFS fairness**: admissions happen strictly in arrival order
//!   (ticket-based), matching the paper's queue discipline.
//! * **Live limit updates**: a controller thread can lower or raise `n*`
//!   at any time; raising wakes waiters immediately. Lowering never aborts
//!   running work — the paper's recommended admission-only realization
//!   ("not displacing transactions has a smoothing effect … that supports
//!   controller stability"); the population drains to the new limit by
//!   normal departures.
//! * **RAII permits**: dropping a [`Permit`] releases the slot, so a
//!   panicking worker cannot leak MPL capacity.
//! * **Wait statistics** for the measurement layer.
//!
//! # Fast path and slow path
//!
//! The load `n` and the threshold `n*` live in one atomic word
//! (`in_use` in the low half, `limit` in the high half), so "accept iff
//! `n < n*`" is a single compare-and-swap and a departure is a single
//! `fetch_sub`. An arrival takes that **fast path** iff nobody is queued
//! (`waiting == 0`); it touches no mutex, no condition variable and no
//! clock.
//!
//! Otherwise it takes the **slow path**: the FCFS queue, a mutex-guarded
//! ticket dispenser with a condition variable. A queued arrival first
//! announces itself in `waiting`, then — holding the queue mutex, and
//! only when its ticket is being served — retries the very same CAS, and
//! sleeps if that fails. A departure or a limit change wakes the queue
//! only if `waiting > 0`. No caller code runs under the queue mutex; if
//! a panic poisons it anyway, the next caller takes the queue as it is.
//!
//! **Why FCFS holds.** Tickets order the slow path among itself exactly
//! as before. The fast path is open only while `waiting == 0`, i.e. while
//! no ticket holder is queued, so an arrival that finds somebody queued
//! always takes a ticket behind them. (An arrival that read `waiting ==
//! 0` a moment before somebody queued arrived first, and may enter
//! first.)
//!
//! **Why no wake-up is lost.** Every access to the word and to `waiting`
//! is `SeqCst`, so they fall into one total order. The waiter does
//! *increment `waiting`, then CAS the word*; the releaser (or
//! `set_limit`) does *write the word, then load `waiting`*. In the total
//! order either the waiter's CAS comes after the write and sees the
//! freed slot, or the releaser's load comes after the increment and sees
//! the waiter. In the second case the releaser takes the queue mutex
//! before notifying: the waiter holds it from its failed CAS until it is
//! parked on the condition variable, so the notification cannot fall
//! into that gap.

use std::collections::BTreeSet;
use std::sync::atomic::{
    AtomicU32, AtomicU64,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Snapshot of the gate's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateStats {
    /// Current admission limit `n*`.
    pub limit: u32,
    /// Permits currently held (the actual load `n`).
    pub in_use: u32,
    /// Arrivals currently blocked in the FCFS queue.
    pub waiting: u32,
    /// Total admissions since construction.
    pub total_admitted: u64,
    /// Acquisitions abandoned (timeout) since construction.
    pub total_abandoned: u64,
    /// Mean time admitted arrivals spent queued, milliseconds.
    pub mean_wait_ms: f64,
}

/// The words every admission and departure writes, alone on their own
/// 128-byte line (two 64-byte lines: adjacent-line prefetchers pair
/// them) so that the queue's fields are never invalidated by the fast
/// path.
#[derive(Debug)]
#[repr(align(128))]
struct Hot {
    /// `limit << 32 | in_use`.
    word: AtomicU64,
    /// Total admissions (a statistic: `Relaxed`).
    admitted: AtomicU64,
}

fn pack(limit: u32, in_use: u32) -> u64 {
    u64::from(limit) << 32 | u64::from(in_use)
}

/// `(limit, in_use)` of a packed word.
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// The FCFS queue's bookkeeping, guarded by the queue mutex.
#[derive(Debug)]
struct Queue {
    next_ticket: u64,
    serving: u64,
    /// Tickets whose owners timed out before being served.
    abandoned: BTreeSet<u64>,
    total_abandoned: u64,
    wait_sum_ms: f64,
}

impl Queue {
    /// Skips over tickets whose owners gave up so the queue never stalls
    /// behind a ghost.
    fn advance_past_abandoned(&mut self) {
        while self.abandoned.remove(&self.serving) {
            self.serving += 1;
        }
    }
}

/// A thread-safe, FIFO-fair concurrency limiter with a live-updatable
/// limit. See the module docs for the design rationale.
#[derive(Debug)]
pub struct AdaptiveGate {
    hot: Hot,
    /// Arrivals inside the slow path; written only under the queue
    /// mutex, read by the fast path and by departures.
    waiting: AtomicU32,
    queue: Mutex<Queue>,
    cond: Condvar,
}

impl AdaptiveGate {
    /// Creates a gate admitting at most `limit` concurrent holders.
    pub fn new(limit: u32) -> Self {
        AdaptiveGate {
            hot: Hot {
                word: AtomicU64::new(pack(limit, 0)),
                admitted: AtomicU64::new(0),
            },
            waiting: AtomicU32::new(0),
            queue: Mutex::new(Queue {
                next_ticket: 0,
                serving: 0,
                abandoned: BTreeSet::new(),
                total_abandoned: 0,
                wait_sum_ms: 0.0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Blocks until admitted; returns a permit that releases on drop.
    pub fn acquire(&self) -> Permit<'_> {
        self.permit(
            self.enter(None)
                .expect("acquire without deadline cannot time out"),
        )
    }

    /// Blocks until admitted or until `timeout` elapses.
    pub fn acquire_timeout(&self, timeout: Duration) -> Option<Permit<'_>> {
        self.enter(Some(timeout)).map(|n| self.permit(n))
    }

    /// Admits immediately if the queue is empty and capacity is free;
    /// never blocks and never jumps the FCFS queue.
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        let population = if self.waiting.load(SeqCst) == 0 {
            self.try_enter()
        } else {
            // Somebody is in the slow path: decide under its mutex
            // whether a ticket is actually outstanding.
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            q.advance_past_abandoned();
            if q.serving == q.next_ticket {
                self.try_enter()
            } else {
                None
            }
        };
        population.map(|n| self.permit(n))
    }

    fn permit(&self, population: u32) -> Permit<'_> {
        Permit {
            gate: self,
            population,
        }
    }

    /// The admission test itself, shared by both paths: `in_use <
    /// limit` → `in_use + 1` in one CAS. Returns the population
    /// including the new entrant.
    fn try_enter(&self) -> Option<u32> {
        let mut word = self.hot.word.load(SeqCst);
        loop {
            let (limit, in_use) = unpack(word);
            if in_use >= limit {
                return None;
            }
            // `in_use < limit <= u32::MAX`: the increment cannot carry
            // into the limit half.
            match self
                .hot
                .word
                .compare_exchange_weak(word, word + 1, SeqCst, SeqCst)
            {
                Ok(_) => {
                    self.hot.admitted.fetch_add(1, Relaxed);
                    return Some(in_use + 1);
                }
                Err(seen) => word = seen,
            }
        }
    }

    /// Fast path if nobody is queued, else the FCFS queue. `None` only
    /// when `timeout` ran out.
    fn enter(&self, timeout: Option<Duration>) -> Option<u32> {
        if self.waiting.load(SeqCst) == 0 {
            if let Some(population) = self.try_enter() {
                return Some(population);
            }
        }
        self.enter_queued(timeout)
    }

    fn enter_queued(&self, timeout: Option<Duration>) -> Option<u32> {
        let start = Instant::now();
        // A patience too long to represent is no deadline at all.
        let deadline = timeout.and_then(|t| start.checked_add(t));
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = q.next_ticket;
        q.next_ticket += 1;
        // Announce first, test second (the module docs' no-lost-wake-up
        // argument rests on this order).
        self.waiting.fetch_add(1, SeqCst);
        let (mut parked, mut timed_out) = (false, false);
        loop {
            q.advance_past_abandoned();
            if q.serving == ticket {
                if let Some(population) = self.try_enter() {
                    q.serving += 1;
                    q.advance_past_abandoned();
                    if parked {
                        q.wait_sum_ms += start.elapsed().as_secs_f64() * 1000.0;
                    }
                    self.leave_queue(q);
                    return Some(population);
                }
            }
            if timed_out {
                // Lost even the race at the deadline: give the ticket up.
                q.total_abandoned += 1;
                q.abandoned.insert(ticket);
                q.advance_past_abandoned();
                self.leave_queue(q);
                return None;
            }
            parked = true;
            q = match deadline {
                None => self.cond.wait(q).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let (q, wait) = self
                        .cond
                        .wait_timeout(q, d.saturating_duration_since(Instant::now()))
                        .unwrap_or_else(PoisonError::into_inner);
                    timed_out = wait.timed_out();
                    q
                }
            };
        }
    }

    /// Ends a slow-path visit (admitted or abandoned). The ticket now
    /// being served may fit too (e.g. after a limit raise), and every
    /// waiter that woke before its turn has gone back to sleep: cascade
    /// the wake-up.
    fn leave_queue(&self, q: MutexGuard<'_, Queue>) {
        let others = self.waiting.fetch_sub(1, SeqCst) > 1;
        drop(q);
        if others {
            self.cond.notify_all();
        }
    }

    /// Wakes the queue after the word changed, if anybody is in it. The
    /// lock-unlock orders the notification after the waiter's parking
    /// (see the module docs).
    fn wake_queue(&self) {
        if self.waiting.load(SeqCst) > 0 {
            drop(self.queue.lock().unwrap_or_else(PoisonError::into_inner));
            self.cond.notify_all();
        }
    }

    /// Gives a slot back; returns the population left behind.
    fn release(&self) -> u32 {
        let (_, in_use) = unpack(self.hot.word.fetch_sub(1, SeqCst));
        debug_assert!(in_use > 0, "release without a held permit");
        self.wake_queue();
        in_use - 1
    }

    /// Replaces the admission limit `n*`. Raising it wakes queued
    /// arrivals; lowering it only affects future admissions (no
    /// displacement — §4.3).
    pub fn set_limit(&self, limit: u32) {
        let mut word = self.hot.word.load(SeqCst);
        while let Err(seen) =
            self.hot
                .word
                .compare_exchange_weak(word, pack(limit, unpack(word).1), SeqCst, SeqCst)
        {
            word = seen;
        }
        self.wake_queue();
    }

    /// The current admission limit.
    pub fn limit(&self) -> u32 {
        unpack(self.hot.word.load(SeqCst)).0
    }

    /// Permits currently held.
    pub fn in_use(&self) -> u32 {
        unpack(self.hot.word.load(SeqCst)).1
    }

    /// A snapshot of all counters: `limit` and `in_use` are one atomic
    /// read, the queue's counters are read under its mutex.
    pub fn stats(&self) -> GateStats {
        let q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let (limit, in_use) = unpack(self.hot.word.load(SeqCst));
        let total_admitted = self.hot.admitted.load(Relaxed);
        GateStats {
            limit,
            in_use,
            waiting: self.waiting.load(SeqCst),
            total_admitted,
            total_abandoned: q.total_abandoned,
            // Fast-path admissions waited zero.
            mean_wait_ms: if total_admitted == 0 {
                0.0
            } else {
                q.wait_sum_ms / total_admitted as f64
            },
        }
    }
}

/// A borrowed admission permit; releases its slot on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdaptiveGate,
    population: u32,
}

impl Permit<'_> {
    /// The in-system population this admission produced (this permit
    /// included), exactly as the admitting CAS wrote it.
    pub fn population(&self) -> u32 {
        self.population
    }

    /// Releases the slot now, returning the population the departure
    /// left behind — what a later [`AdaptiveGate::in_use`] could only
    /// approximate.
    pub fn release(self) -> u32 {
        let population = self.gate.release();
        std::mem::forget(self);
        population
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn basic_acquire_release() {
        let gate = AdaptiveGate::new(2);
        let p1 = gate.acquire();
        let p2 = gate.acquire();
        assert_eq!(gate.in_use(), 2);
        assert!(gate.try_acquire().is_none());
        drop(p1);
        assert_eq!(gate.in_use(), 1);
        let p3 = gate.try_acquire();
        assert!(p3.is_some());
        drop(p2);
        drop(p3);
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn permits_report_the_population_they_produced() {
        let gate = AdaptiveGate::new(3);
        let p1 = gate.acquire();
        let p2 = gate.try_acquire().expect("capacity free");
        let p3 = gate.acquire_timeout(Duration::ZERO).expect("capacity free");
        assert_eq!(
            (p1.population(), p2.population(), p3.population()),
            (1, 2, 3)
        );
        assert_eq!(p2.release(), 2);
        assert_eq!(
            gate.in_use(),
            2,
            "an explicit release frees exactly one slot"
        );
        drop(p1);
        assert_eq!(p3.release(), 0);
        assert_eq!(gate.stats().total_admitted, 3);
    }

    #[test]
    fn permit_drop_on_panic_path_releases() {
        let gate = AdaptiveGate::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = gate.acquire();
            panic!("worker died");
        }));
        assert!(result.is_err());
        // The permit must have been returned.
        assert_eq!(gate.in_use(), 0);
        let _p = gate.try_acquire().expect("slot must be free again");
    }

    #[test]
    fn never_exceeds_limit_under_contention() {
        let gate = Arc::new(AdaptiveGate::new(4));
        let concurrent = Arc::new(AtomicI32::new(0));
        let peak = Arc::new(AtomicI32::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let gate = Arc::clone(&gate);
            let concurrent = Arc::clone(&concurrent);
            let peak = Arc::clone(&peak);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _p = gate.acquire();
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 4, "peak {:?}", peak);
        assert_eq!(gate.in_use(), 0);
        assert_eq!(gate.stats().total_admitted, 16 * 50);
    }

    #[test]
    fn fifo_admission_order() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let blocker = gate.acquire();
        let started = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for i in 0..5u32 {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            let started = Arc::clone(&started);
            handles.push(thread::spawn(move || {
                // Serialize queue entry so ticket order == i order.
                while started.load(Ordering::SeqCst) != i {
                    std::hint::spin_loop();
                }
                let handle = thread::spawn({
                    let gate = Arc::clone(&gate);
                    let order = Arc::clone(&order);
                    move || {
                        let _p = gate.acquire();
                        order.lock().unwrap().push(i);
                    }
                });
                // Give the inner thread time to enqueue before releasing
                // the next spawner. `waiting` alone is not a safe condition:
                // it peaks at 5 only transiently, and on a single-core box
                // this thread can miss that window entirely once the main
                // thread drops the blocker and admissions begin. Admissions
                // are monotonic, so `total_admitted > 1` (beyond the
                // blocker's own) is a sticky "queue order already locked in"
                // signal.
                loop {
                    let s = gate.stats();
                    if s.waiting > i || s.total_admitted > 1 {
                        break;
                    }
                    std::thread::yield_now();
                }
                started.store(i + 1, Ordering::SeqCst);
                handle.join().unwrap();
            }));
        }
        while gate.stats().waiting < 5 {
            std::thread::yield_now();
        }
        drop(blocker);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn raising_limit_wakes_waiters() {
        let gate = Arc::new(AdaptiveGate::new(0));
        let admitted = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let gate = Arc::clone(&gate);
            let admitted = Arc::clone(&admitted);
            handles.push(thread::spawn(move || {
                let _p = gate.acquire();
                admitted.fetch_add(1, Ordering::SeqCst);
            }));
        }
        while gate.stats().waiting < 3 {
            std::thread::yield_now();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 0);
        gate.set_limit(3);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(admitted.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn lowering_limit_is_admission_only() {
        // Holders are never displaced; in_use may exceed the new limit
        // until permits drain.
        let gate = AdaptiveGate::new(2);
        let p1 = gate.acquire();
        let p2 = gate.acquire();
        gate.set_limit(1);
        assert_eq!(gate.in_use(), 2, "no displacement on limit drop");
        assert!(gate.try_acquire().is_none());
        drop(p1);
        assert!(gate.try_acquire().is_none(), "still at the new limit");
        drop(p2);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn timeout_gives_up_and_queue_moves_on() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        // This waiter times out…
        assert!(gate.acquire_timeout(Duration::from_millis(30)).is_none());
        assert_eq!(gate.stats().total_abandoned, 1);
        // …and must not wedge the queue for the next arrival.
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire();
        });
        drop(blocker);
        h.join().unwrap();
        assert_eq!(gate.in_use(), 0);
    }

    #[test]
    fn timeout_zero_on_free_gate_still_admits() {
        let gate = AdaptiveGate::new(1);
        let p = gate.acquire_timeout(Duration::ZERO);
        assert!(p.is_some());
    }

    #[test]
    fn try_acquire_respects_queue() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire();
        });
        while gate.stats().waiting < 1 {
            std::thread::yield_now();
        }
        drop(blocker);
        // Even the instant the slot frees, try_acquire must not overtake
        // the queued waiter.
        let stolen = gate.try_acquire();
        assert!(
            stolen.is_none() || gate.stats().waiting == 0,
            "try_acquire jumped the FCFS queue"
        );
        drop(stolen);
        h.join().unwrap();
    }

    #[test]
    fn stats_track_waiting_and_wait_time() {
        let gate = Arc::new(AdaptiveGate::new(1));
        let blocker = gate.acquire();
        let gate2 = Arc::clone(&gate);
        let h = thread::spawn(move || {
            let _p = gate2.acquire();
        });
        while gate.stats().waiting < 1 {
            std::thread::yield_now();
        }
        thread::sleep(Duration::from_millis(20));
        drop(blocker);
        h.join().unwrap();
        let stats = gate.stats();
        assert_eq!(stats.waiting, 0);
        assert_eq!(stats.total_admitted, 2);
        assert!(
            stats.mean_wait_ms >= 5.0,
            "queued thread waited ~20ms, stats say {}",
            stats.mean_wait_ms
        );
    }

    #[test]
    fn zero_limit_blocks_everyone() {
        let gate = AdaptiveGate::new(0);
        assert!(gate.try_acquire().is_none());
        assert!(gate.acquire_timeout(Duration::from_millis(10)).is_none());
    }
}
