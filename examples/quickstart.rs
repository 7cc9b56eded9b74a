//! Quickstart: adaptive concurrency limiting for a real (threaded)
//! workload.
//!
//! A pool of worker threads pushes jobs through a
//! [`ControlLoop`](adaptive_load_control::runtime::ControlLoop) whose
//! gate limit is steered by the Incremental Steps controller — the same
//! feedback loop the paper applies to transaction processing, applied to
//! any server that degrades under excessive concurrency. The loop ticks
//! every 250 ms, a fixed cadence. Sizing each window from the spread of
//! the window counts, for a ±10 % throughput estimate at 95 % confidence
//! (the paper's §5 rule), does not fit here: Incremental Steps moves the
//! bound every window, so the departure rate moves with it, and that
//! controller-made variation reads as noise — the rule grows every
//! interval to its 1 s cap, although ~2,500 commits/s would need about
//! 150 ms.
//!
//! The simulated "work" here degrades when too many jobs run at once
//! (think lock contention or cache thrash): each job takes
//! `base · (1 + (n/12)³)` milliseconds at concurrency `n`. The controller
//! discovers the sweet spot without being told this formula.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adaptive_load_control::core::controller::{IncrementalSteps, IsParams};
use adaptive_load_control::core::PerfIndicator;
use adaptive_load_control::runtime::{AdmissionPolicy, ControlLoop, Outcome, PaperLaw};

fn main() {
    let controller = IncrementalSteps::new(IsParams {
        initial_bound: 2,
        min_bound: 1,
        max_bound: 64,
        beta: 0.05,
        min_step: 1.0,
        max_step: 4.0,
        ..IsParams::default()
    });
    let control = Arc::new(ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(controller))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    ));
    let running = Arc::new(AtomicBool::new(true));
    let in_flight = Arc::new(AtomicU32::new(0));

    // 32 workers compete for admission; the gate decides how many may run.
    let mut handles = Vec::new();
    for _ in 0..32 {
        let control = Arc::clone(&control);
        let running = Arc::clone(&running);
        let in_flight = Arc::clone(&in_flight);
        handles.push(std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                let permit = control.admit().expect("Queue policy never sheds");
                let n = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                // Work that degrades superlinearly with concurrency.
                let ms = 2.0 * (1.0 + (f64::from(n) / 12.0).powi(3));
                let t0 = std::time::Instant::now();
                std::thread::sleep(Duration::from_micros((ms * 1000.0) as u64));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                control.complete(
                    permit,
                    Outcome::Commit {
                        response_ms: t0.elapsed().as_secs_f64() * 1000.0,
                        conflicts: 0,
                    },
                );
            }
        }));
    }

    println!("interval  limit  throughput/s  mean_resp_ms  queued");
    let mut converged = 0;
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(250));
        let decision = control.tick();
        let m = &decision.window.measurement;
        converged = decision.bound;
        println!(
            "{:>8.1}s {:>5}  {:>12.0}  {:>12.2}  {:>6}",
            m.at_ms / 1000.0,
            decision.bound,
            m.performance,
            m.mean_response_ms,
            decision.window.queue_depth,
        );
    }
    running.store(false, Ordering::Relaxed);
    // Unblock any workers still queued at the gate.
    control.gate().set_limit(64);
    for h in handles {
        h.join().expect("worker");
    }
    println!("\nconverged concurrency limit: {converged} (work degrades sharply past ~12)");
}
