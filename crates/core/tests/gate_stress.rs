//! Concurrency stress tests of the adaptive gate: many threads, live
//! limit changes, timeout storms. These are the conditions a production
//! admission controller actually faces.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alc_core::gate::AdaptiveGate;

#[test]
fn limit_churn_never_overschedules() {
    let gate = Arc::new(AdaptiveGate::new(4));
    let running = Arc::new(AtomicBool::new(true));
    let concurrent = Arc::new(AtomicI64::new(0));
    let violations = Arc::new(AtomicI64::new(0));

    // A controller thread sweeps the limit up and down.
    let limiter = {
        let gate = Arc::clone(&gate);
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut limit = 1u32;
            let mut up = true;
            // SeqCst: this load is the first link in the chain that lets
            // drain-admitted workers trust their own `running` read (store
            // in main → this load → drain set_limit under the gate mutex →
            // worker admission → worker load).
            while running.load(Ordering::SeqCst) {
                gate.set_limit(limit);
                if up {
                    limit += 1;
                    if limit >= 12 {
                        up = false;
                    }
                } else {
                    limit -= 1;
                    if limit <= 1 {
                        up = true;
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            gate.set_limit(64); // let everyone drain
        })
    };

    let mut workers = Vec::new();
    for _ in 0..16 {
        let gate = Arc::clone(&gate);
        let running = Arc::clone(&running);
        let concurrent = Arc::clone(&concurrent);
        let violations = Arc::clone(&violations);
        workers.push(std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                let permit = gate.acquire();
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                // The limit is in motion; admission-only semantics allow
                // in-flight work to exceed a *freshly lowered* limit, but
                // never the historical maximum the limiter ever set — while
                // the churn is live. The final drain (`set_limit(64)` after
                // shutdown) releases every blocked worker at once, so a
                // worker admitted by it must not count its burst: re-check
                // `running` after admission. SeqCst pairs with the store in
                // the main thread so a worker admitted by the drain cannot
                // observe a stale `true`.
                if now > 12 && running.load(Ordering::SeqCst) {
                    violations.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::yield_now();
                concurrent.fetch_sub(1, Ordering::SeqCst);
                drop(permit);
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(300));
    running.store(false, Ordering::SeqCst);
    limiter.join().unwrap();
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(
        violations.load(Ordering::SeqCst),
        0,
        "admissions exceeded the maximum limit ever set"
    );
    assert_eq!(gate.in_use(), 0);
}

#[test]
fn timeout_storm_leaves_consistent_state() {
    let gate = Arc::new(AdaptiveGate::new(1));
    let blocker = gate.acquire();
    let mut handles = Vec::new();
    for _ in 0..12 {
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            let mut gave_up = 0;
            for _ in 0..20 {
                if gate.acquire_timeout(Duration::from_micros(100)).is_none() {
                    gave_up += 1;
                }
            }
            gave_up
        }));
    }
    let abandoned: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(abandoned > 0, "storm produced no timeouts at all");
    drop(blocker);
    // After the storm, the gate must be fully functional and FIFO-clean.
    let stats = gate.stats();
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.total_abandoned, abandoned as u64);
    let p1 = gate.acquire();
    assert!(gate.try_acquire().is_none());
    drop(p1);
    assert!(gate.try_acquire().is_some());
}

#[test]
fn throughput_under_contention_is_live() {
    // Liveness: with a small limit and many threads, everyone keeps
    // making progress (no lost wakeups).
    let gate = Arc::new(AdaptiveGate::new(2));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let gate = Arc::clone(&gate);
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                let p = gate.acquire();
                std::hint::black_box(&p);
            }
        }));
    }
    for h in handles {
        h.join().expect("a worker wedged");
    }
    assert_eq!(gate.stats().total_admitted, 8 * 200);
}

#[test]
fn raising_limit_mid_queue_admits_in_order() {
    let gate = Arc::new(AdaptiveGate::new(0));
    let order = Arc::new(Mutex::new(Vec::new()));
    let release = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for i in 0..6u32 {
        // Serialize enqueueing so ticket order is deterministic.
        while gate.stats().waiting < i {
            std::thread::yield_now();
        }
        let gate = Arc::clone(&gate);
        let order = Arc::clone(&order);
        let release = Arc::clone(&release);
        handles.push(std::thread::spawn(move || {
            let _p = gate.acquire();
            order.lock().unwrap().push(i);
            // Hold the permit until the test is done raising, so each
            // raise admits exactly one waiter (a dropped permit would
            // admit the next one out from under the raise sequence).
            while !release.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(50));
            }
        }));
    }
    while gate.stats().waiting < 6 {
        std::thread::yield_now();
    }
    // Open one slot at a time; every raise must admit exactly the FIFO
    // head, observed via its push before the next raise.
    for k in 1..=6u32 {
        gate.set_limit(k);
        while order.lock().unwrap().len() < k as usize {
            std::thread::yield_now();
        }
    }
    release.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let order = order.lock().unwrap();
    assert_eq!(
        *order,
        vec![0, 1, 2, 3, 4, 5],
        "FIFO violated across limit raises"
    );
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// after `secs`: a lost wake-up shows as a hang, not as a wrong answer.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let body = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => {
            body.join().expect("body finished");
            v
        }
        Err(RecvTimeoutError::Timeout) => panic!("gate wedged for {secs} s: a wake-up was lost"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().expect_err("sender dropped without sending"))
        }
    }
}

const CALLERS: u64 = 8;
const OPS: u64 = 20_000;

/// `CALLERS` blocking callers each push `OPS` acquire/release cycles
/// through `gate` while an observer tries to jump the queue; `flap`
/// additionally cycles the limit through `0..=flap`. Returns the peak
/// number of permits seen out at once.
///
/// The observer is the FCFS oracle. It reads `waiting = w` and
/// `total_admitted = a` in one `stats()` call (under the queue mutex, so
/// none of the `w` is admitted yet), then calls `try_acquire`. No caller
/// ever abandons its ticket, so if the observer gets in, all `w` must
/// have been admitted before it: `total_admitted >= a + w + 1`
/// afterwards. A fast path that ignored the queue would get in while
/// they still wait.
fn hammer(gate: &Arc<AdaptiveGate>, flap: Option<u32>) -> u32 {
    let out = AtomicU32::new(0);
    let peak = AtomicU32::new(0);
    let callers_left = AtomicU64::new(CALLERS);
    let jumped_in = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            s.spawn(|| {
                for _ in 0..OPS {
                    let permit = gate.acquire();
                    peak.fetch_max(out.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                    out.fetch_sub(1, Ordering::SeqCst);
                    drop(permit);
                }
                callers_left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        s.spawn(|| {
            while callers_left.load(Ordering::SeqCst) > 0 {
                let before = gate.stats();
                if before.waiting == 0 {
                    std::thread::yield_now();
                    continue;
                }
                if let Some(permit) = gate.try_acquire() {
                    jumped_in.fetch_add(1, Ordering::SeqCst);
                    let after = gate.stats().total_admitted;
                    assert!(
                        after > before.total_admitted + u64::from(before.waiting),
                        "try_acquire overtook the queue: {} waiting at {} admitted, {after} after",
                        before.waiting,
                        before.total_admitted
                    );
                    drop(permit);
                }
            }
        });
        if let Some(top) = flap {
            let callers_left = &callers_left;
            s.spawn(move || {
                let mut limit = 0;
                while callers_left.load(Ordering::SeqCst) > 0 {
                    gate.set_limit(limit);
                    limit = (limit + 1) % (top + 1);
                    std::thread::yield_now();
                }
                gate.set_limit(top);
            });
        }
    });
    let stats = gate.stats();
    assert_eq!(
        stats.total_admitted,
        CALLERS * OPS + jumped_in.load(Ordering::SeqCst),
        "every admission counted exactly once"
    );
    assert_eq!(
        (stats.in_use, stats.waiting, stats.total_abandoned),
        (0, 0, 0)
    );
    peak.load(Ordering::SeqCst)
}

/// Saturated hand-off at a fixed bound: every departure must wake the
/// queue head (nothing else would), the population never passes the
/// bound, and nobody overtakes a queued ticket.
#[test]
fn saturated_handoff_loses_no_wakeup_and_keeps_fcfs() {
    for bound in [1, 2] {
        let peak = with_watchdog(120, move || {
            hammer(&Arc::new(AdaptiveGate::new(bound)), None)
        });
        assert!(peak <= bound, "peak {peak} above the bound {bound}");
    }
}

/// The same hand-off while the limit cycles 0, 1, …, 4: admissions race
/// `set_limit`'s rewrite of the other half of the gate's word, and
/// callers parked at limit 0 depend on the raise to wake them.
#[test]
fn flapping_limit_loses_no_wakeup_and_keeps_fcfs() {
    let peak = with_watchdog(120, || hammer(&Arc::new(AdaptiveGate::new(2)), Some(4)));
    assert!(peak <= 4, "peak {peak} above every limit ever set");
}
