//! Property test: the gate's admission invariant under arbitrary
//! operation interleavings.
//!
//! The contract from §4.3 is admission-only control: an arrival is
//! admitted iff the actual load is below the current bound, and a
//! lowered bound never displaces holders — the population drains to the
//! new limit by normal departures. Proptest drives a [`ControlLoop`]
//! through arbitrary admit / complete / drop / re-bound / tick sequences
//! and checks, after every step, that admitted − released (the permits
//! actually held) matches the gate's accounting and never passes the
//! bound that was in force at admission time, and that the population
//! the core was last fed is the gate's.

use std::sync::{Arc, Mutex};

use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, AimdLaw, AimdParams, ControlLoop, Outcome, PaperLaw};
use proptest::prelude::*;

/// The population in the last `Mpl` event the core was fed.
struct LastMpl(Arc<Mutex<Option<u32>>>);

impl GateLogSink for LastMpl {
    fn record(&mut self, event: &GateEvent) {
        if let GateEvent::Mpl { in_system, .. } = *event {
            *self.0.lock().unwrap() = Some(in_system);
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Try to enter the gate (shed if full).
    Admit,
    /// Finish a held unit of work (slot taken modulo the held count).
    Complete { slot: usize, abort: bool },
    /// Drop a held permit without reporting an outcome.
    Drop { slot: usize },
    /// Controller-style live bound change.
    SetBound(u32),
    /// Close the measurement window and let the law move the bound.
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Admit),
        3 => (any::<usize>(), any::<bool>())
            .prop_map(|(slot, abort)| Op::Complete { slot, abort }),
        1 => any::<usize>().prop_map(|slot| Op::Drop { slot }),
        1 => (0u32..6).prop_map(Op::SetBound),
        1 => Just(Op::Tick),
    ]
}

proptest! {
    #[test]
    fn admitted_minus_completed_never_exceeds_the_bound(
        initial_bound in 1u32..5,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let rt = ControlLoop::new(
            Box::new(AimdLaw::new(AimdParams {
                initial_bound,
                min_bound: 1,
                max_bound: 6,
                ..AimdParams::default()
            })),
            PerfIndicator::Throughput,
            AdmissionPolicy::Shed,
        );
        let last_mpl = Arc::new(Mutex::new(None));
        rt.set_gate_log(Box::new(LastMpl(Arc::clone(&last_mpl))));
        let mut held = Vec::new();
        for op in ops {
            match op {
                Op::Admit => {
                    let limit = rt.gate().limit();
                    let before = rt.gate().in_use();
                    match rt.admit() {
                        Some(permit) => {
                            // Admission happened strictly under the bound.
                            prop_assert!(before < limit,
                                "admitted at load {before} with bound {limit}");
                            held.push(permit);
                        }
                        None => prop_assert!(before >= limit,
                            "shed at load {before} under bound {limit}"),
                    }
                }
                Op::Complete { slot, abort } => {
                    if !held.is_empty() {
                        let permit = held.swap_remove(slot % held.len());
                        let outcome = if abort {
                            Outcome::Abort { conflicts: 1 }
                        } else {
                            Outcome::Commit { response_ms: 5.0, conflicts: 0 }
                        };
                        rt.complete(permit, outcome);
                    }
                }
                Op::Drop { slot } => {
                    if !held.is_empty() {
                        drop(held.swap_remove(slot % held.len()));
                    }
                }
                Op::SetBound(bound) => rt.gate().set_limit(bound),
                Op::Tick => {
                    let decision = rt.tick();
                    prop_assert_eq!(rt.gate().limit(), decision.bound);
                }
            }
            // admitted − released is exactly the permits we hold, and the
            // gate's own accounting agrees after every interleaving step.
            prop_assert_eq!(rt.gate().in_use() as usize, held.len());
            // `metrics` drains the stripes: the core's MPL is the gate's.
            rt.metrics();
            let fed = last_mpl.lock().unwrap().unwrap_or(0);
            prop_assert_eq!(fed, rt.gate().in_use());
        }
    }
}

/// The same invariant under real thread interleavings: a fixed-bound
/// paper controller caps concurrency at 3, sixteen workers hammer the
/// loop, and the observed concurrent peak never passes the bound.
#[test]
fn concurrent_workers_never_exceed_the_bound() {
    use std::sync::atomic::{AtomicI32, Ordering};

    let rt = ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(
            alc_core::controller::FixedBound::new(3),
        ))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Queue,
    );
    let concurrent = AtomicI32::new(0);
    let peak = AtomicI32::new(0);
    std::thread::scope(|s| {
        for _ in 0..16 {
            s.spawn(|| {
                for i in 0..50 {
                    let permit = rt.admit().expect("Queue policy never sheds");
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                    rt.complete(
                        permit,
                        Outcome::Commit {
                            response_ms: f64::from(i),
                            conflicts: 0,
                        },
                    );
                }
            });
        }
    });
    assert!(
        peak.load(Ordering::SeqCst) <= 3,
        "peak {peak:?} above bound 3"
    );
    assert_eq!(rt.gate().in_use(), 0);
    assert_eq!(rt.gate().stats().total_admitted, 16 * 50);
    let d = rt.tick();
    assert_eq!(d.window.measurement.departures, 16 * 50);
}
