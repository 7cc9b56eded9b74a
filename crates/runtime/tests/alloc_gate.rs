//! Allocation gate: the runtime's admit/complete/tick fast path must be
//! zero-allocation after warm-up.
//!
//! This test binary installs a counting global allocator and drives a
//! warmed-up [`ControlLoop`] through admit → complete cycles with
//! periodic ticks, exactly as an embedding server would — from two
//! threads, which the loop deals onto two different stripes, each
//! filling its stripe many times over between ticks. After warm-up,
//! *no* operation may touch the allocator: the gate admits by counter
//! arithmetic, events are recorded into fixed arrays and merged in a
//! buffer sized at construction, telemetry counts response times into a
//! histogram allocated with the loop, and the AIMD law is pure
//! arithmetic. (The JSONL gate-log sink is the documented exception — logging buys bytes with
//! allocations — so the measured loop runs without one.) A second window
//! runs the same work with a [`CountingSink`] trace installed after the
//! first: its lines are made from the stripes' records in the drains,
//! and once its tallies have their keys, tracing allocates nothing
//! either.
//!
//! Kept as its own integration-test binary so the global allocator
//! cannot race with unrelated tests, and built with `harness = false`:
//! libtest's runner thread lazily allocates its parking state the first
//! time it blocks waiting on a test, which intermittently lands inside
//! the measurement window. With a plain `main` the only threads are the
//! two callers, so the counter sees only the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, AimdLaw, AimdParams, ControlLoop, Outcome};
use alc_trace::CountingSink;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One batch of server-shaped work: admit, "run" (pure arithmetic),
/// complete with a mix of commits and aborts, tick every `tick_every`
/// cycles. The bound stays far above 1 so `Queue` admissions never park
/// the thread.
fn churn(rt: &ControlLoop, ops: usize, tick_every: usize) {
    for i in 0..ops {
        let permit = rt.admit().expect("Queue policy never sheds");
        let response = 1.0 + (i * 31 % 89) as f64;
        let outcome = if i % 11 == 0 {
            Outcome::Abort {
                conflicts: (i % 3) as u64,
            }
        } else {
            Outcome::Commit {
                response_ms: response,
                conflicts: (i % 5 == 0) as u64,
            }
        };
        rt.complete(permit, outcome);
        if i % tick_every == tick_every - 1 {
            let d = rt.tick();
            assert!(d.bound >= 1);
        }
    }
}

fn main() {
    const WARMUP_OPS: usize = 10_000;
    const MEASURED_OPS: usize = 50_000;

    let rt = ControlLoop::new(
        Box::new(AimdLaw::new(AimdParams {
            initial_bound: 64,
            min_bound: 16,
            max_bound: 256,
            ..AimdParams::default()
        })),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    );

    // Main ticks every 97 ops; the second caller never does, so its
    // stripe drains only by filling up (its own drains) and by main's.
    // Spawning allocates, so the second caller exists before the windows
    // open and waits at a barrier on either side of each. Between the
    // windows, main installs the trace sink, and both callers warm its
    // tallies up.
    let barrier = Barrier::new(2);
    let window = |tick_every| {
        barrier.wait();
        let before = allocations();
        churn(&rt, MEASURED_OPS, tick_every);
        barrier.wait();
        allocations() - before
    };
    let (plain, traced) = std::thread::scope(|s| {
        s.spawn(|| {
            churn(&rt, WARMUP_OPS, usize::MAX);
            window(usize::MAX);
            barrier.wait();
            churn(&rt, WARMUP_OPS, usize::MAX);
            window(usize::MAX);
        });
        churn(&rt, WARMUP_OPS, 97);
        let plain = window(97);
        rt.set_trace_sink(Box::new(CountingSink::new()));
        barrier.wait();
        churn(&rt, WARMUP_OPS, 97);
        (plain, window(97))
    });

    assert_eq!(
        plain, 0,
        "admit/complete/tick fast path allocated {plain} times over 2 x {MEASURED_OPS} steady-state ops"
    );
    assert_eq!(
        traced, 0,
        "with a counting trace sink, admit/complete/tick allocated {traced} times over 2 x {MEASURED_OPS} steady-state ops"
    );
    let m = rt.metrics();
    assert_eq!(
        m.commits + m.aborts,
        4 * (WARMUP_OPS + MEASURED_OPS) as u64,
        "both callers' completions reached the core"
    );
    println!("alloc_gate ok: admit/complete/tick fast path allocation-free, traced or not");
}
