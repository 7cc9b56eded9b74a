//! Integration test of the *runtime* control loop (no simulator): real
//! threads push work through the gate while the controller adapts the
//! limit from wall-clock measurements — the path a server embedding this
//! library exercises.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adaptive_load_control::core::controller::{IncrementalSteps, IsParams};
use adaptive_load_control::core::PerfIndicator;
use adaptive_load_control::runtime::{AdmissionPolicy, ControlLoop, Outcome, PaperLaw};

fn is_loop(params: IsParams) -> ControlLoop {
    ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(params)))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    )
}

#[test]
fn control_loop_limits_a_degrading_workload() {
    let cl = Arc::new(is_loop(IsParams {
        initial_bound: 2,
        min_bound: 1,
        max_bound: 32,
        beta: 0.02,
        min_step: 1.0,
        max_step: 3.0,
        // Only 16 workers exist, so any bound above ~16 sees a flat
        // performance signal; δ/γ drift-correction (§4.1) must pull the
        // bound back toward the achievable load instead of letting it
        // random-walk in the flat region.
        delta: 4.0,
        gamma: 4.0,
        ..IsParams::default()
    }));
    let running = Arc::new(AtomicBool::new(true));
    let in_flight = Arc::new(AtomicU32::new(0));

    let mut workers = Vec::new();
    for _ in 0..16 {
        let cl = Arc::clone(&cl);
        let running = Arc::clone(&running);
        let in_flight = Arc::clone(&in_flight);
        workers.push(std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                let permit = cl.admit().expect("Queue policy never sheds");
                let n = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                // Superlinear degradation past ~6 concurrent jobs.
                let us = 300.0 * (1.0 + (f64::from(n) / 6.0).powi(3));
                let t0 = std::time::Instant::now();
                std::thread::sleep(Duration::from_micros(us as u64));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                cl.complete(
                    permit,
                    Outcome::Commit {
                        response_ms: t0.elapsed().as_secs_f64() * 1000.0,
                        conflicts: 0,
                    },
                );
            }
        }));
    }

    let mut limits = Vec::new();
    let mut measured = Vec::new();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(60));
        let decision = cl.tick();
        limits.push(decision.bound);
        measured.push(decision.window.measurement);
    }
    running.store(false, Ordering::Relaxed);
    cl.gate().set_limit(64); // drain queued workers
    for w in workers {
        w.join().unwrap();
    }

    // The loop must have produced real measurements...
    let total: u64 = measured.iter().map(|m| m.departures).sum();
    assert!(total > 200, "only {total} completions measured");
    // ...explored away from the initial limit...
    assert!(
        limits.iter().any(|&l| l != 2),
        "controller never moved: {limits:?}"
    );
    // ...and not pinned itself at the max (the workload degrades hard
    // past ~6, so the controller should live well below 32).
    let tail = &limits[limits.len() / 2..];
    let mean = tail.iter().map(|&l| f64::from(l)).sum::<f64>() / tail.len() as f64;
    assert!(
        mean < 24.0,
        "limit pinned high despite degradation: tail mean {mean}"
    );
    // Gate statistics are consistent after the run.
    let stats = cl.gate().stats();
    assert_eq!(stats.in_use, 0);
    assert_eq!(stats.waiting, 0);
}
