//! The control loop (§4, §7 Figure 11): [`LoopCore`] measures an
//! interval, lets a law pick the MPL bound and records what it saw,
//! driven by explicit `now_ms` arguments alone — no clock, thread or
//! I/O. The simulator's sample tick and `alc-runtime`'s wall-clock
//! shell both run it, so a recorded event stream replayed through it
//! reproduces the original decision sequence bit-for-bit.

use crate::gatelog::{GateEvent, GateLogSink};
use crate::law::{ControlLaw, WindowSnapshot};
use crate::measure::PerfIndicator;
use crate::telemetry::TelemetryWindow;

/// One harvested decision: the bound now in force and the window that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Harvest time, ms from the loop's epoch.
    pub at_ms: f64,
    /// The MPL bound the law chose.
    pub bound: u32,
    /// The telemetry window the law saw.
    pub window: WindowSnapshot,
}

/// The deterministic event-time control core (no clock, no threads, no
/// I/O). Drive it with monotonically non-decreasing `now_ms` values.
///
/// Time starts at `0.0` with an empty system — the same epoch the
/// simulator starts at, which is what lets simulator-recorded logs
/// replay through this type unchanged.
pub struct LoopCore {
    telemetry: TelemetryWindow,
    /// `None` for a loop that measures but never decides: a simulation
    /// under a static bound.
    law: Option<Box<dyn ControlLaw>>,
    log: Option<Box<dyn GateLogSink>>,
    commits: u64,
    aborts: u64,
    sheds: u64,
    decisions: u64,
    last: Option<Decision>,
}

impl LoopCore {
    /// Wires a law to a fresh telemetry window (epoch `0.0`, empty
    /// system).
    pub fn new(law: Box<dyn ControlLaw>, indicator: PerfIndicator) -> Self {
        LoopCore {
            law: Some(law),
            ..Self::without_law(indicator)
        }
    }

    /// A loop without a law: it closes windows but makes, counts and
    /// logs no decision.
    pub fn without_law(indicator: PerfIndicator) -> Self {
        LoopCore {
            telemetry: TelemetryWindow::new(indicator, 0.0, 0),
            law: None,
            log: None,
            commits: 0,
            aborts: 0,
            sheds: 0,
            decisions: 0,
            last: None,
        }
    }

    /// Installs a gate-log recorder mirroring every event fed in.
    pub fn set_gate_log(&mut self, sink: Box<dyn GateLogSink>) {
        self.log = Some(sink);
    }

    /// Removes and returns the recorder.
    pub fn take_gate_log(&mut self) -> Option<Box<dyn GateLogSink>> {
        self.log.take()
    }

    /// Records that the in-system population changed to `in_system`.
    pub fn on_mpl(&mut self, now_ms: f64, in_system: u32) {
        self.feed(&GateEvent::Mpl {
            at_ms: now_ms,
            in_system,
        });
    }

    /// Records a commit.
    pub fn on_commit(&mut self, now_ms: f64, response_ms: f64, conflicts: u64) {
        self.feed(&GateEvent::Commit {
            at_ms: now_ms,
            response_ms,
            conflicts,
        });
    }

    /// Records an abort.
    pub fn on_abort(&mut self, now_ms: f64, conflicts: u64) {
        self.feed(&GateEvent::Abort {
            at_ms: now_ms,
            conflicts,
        });
    }

    /// Feeds one gate-log event: a population change, commit or abort
    /// goes to the telemetry window and, as given, to the recorder; a
    /// recorded decision closes the window at its timestamp (its bound
    /// is ignored — the law re-derives it) and returns what the law
    /// chose. The one entry point behind the `on_*` calls, the
    /// simulator's event sites, replay and the live shell's batches.
    #[inline]
    pub fn feed(&mut self, event: &GateEvent) -> Option<Decision> {
        match *event {
            GateEvent::Decision { at_ms, .. } => return self.close_window(at_ms, 0).1,
            GateEvent::Commit { .. } => self.commits += 1,
            GateEvent::Abort { .. } => self.aborts += 1,
            GateEvent::Mpl { .. } => {}
        }
        self.telemetry.feed(event);
        if let Some(log) = self.log.as_mut() {
            log.record(event);
        }
        None
    }

    /// Records a shed arrival (rejected without queueing).
    pub fn on_shed(&mut self) {
        self.sheds += 1;
        self.telemetry.on_shed();
    }

    /// Closes the window at `now_ms` with `queued` arrivals waiting and
    /// runs the law on it: the window, and the decision, which is also
    /// logged and counted. A loop without a law returns the window alone.
    pub fn close_window(&mut self, now_ms: f64, queued: u32) -> (WindowSnapshot, Option<Decision>) {
        let window = self.telemetry.harvest(now_ms, queued);
        let Some(law) = self.law.as_mut() else {
            return (window, None);
        };
        let bound = law.decide(&window);
        if let Some(log) = self.log.as_mut() {
            log.record(&GateEvent::Decision {
                at_ms: now_ms,
                bound,
            });
        }
        self.decisions += 1;
        self.last = Some(Decision {
            at_ms: now_ms,
            bound,
            window,
        });
        (window, self.last)
    }

    /// Closes the window at `now_ms` and runs the law. Panics on a loop
    /// [`LoopCore::without_law`], which has [`LoopCore::close_window`].
    pub fn harvest(&mut self, now_ms: f64, queue_depth: u32) -> Decision {
        self.close_window(now_ms, queue_depth).1.expect("harvest needs a law")
    }

    /// Cumulative `(commits, aborts, sheds, decisions)` since
    /// construction.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (self.commits, self.aborts, self.sheds, self.decisions)
    }

    /// The last harvested decision, if any window has closed yet.
    pub fn last_decision(&self) -> Option<&Decision> {
        self.last.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::IntervalSampler;
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// A sink sharing its buffer with the test body.
    struct SharedSink(Arc<Mutex<Vec<GateEvent>>>);

    impl GateLogSink for SharedSink {
        fn record(&mut self, event: &GateEvent) {
            self.0.lock().push(*event);
        }
    }

    /// Population changes, commits and aborts over three windows.
    fn stream() -> Vec<GateEvent> {
        let mut events = Vec::new();
        for i in 0..90u32 {
            let at_ms = f64::from(i) * 11.0;
            events.push(GateEvent::Mpl {
                at_ms,
                in_system: 1 + i % 7,
            });
            events.push(if i % 5 == 0 {
                GateEvent::Abort {
                    at_ms,
                    conflicts: u64::from(i % 3),
                }
            } else {
                GateEvent::Commit {
                    at_ms,
                    response_ms: 3.0 + f64::from(i % 13) * 0.7,
                    conflicts: u64::from(i % 2),
                }
            });
        }
        events
    }

    #[test]
    fn a_loop_without_a_law_measures_like_a_bare_sampler_and_decides_nothing() {
        let indicator = PerfIndicator::Throughput;
        let mut core = LoopCore::without_law(indicator);
        let log = Arc::new(Mutex::new(Vec::new()));
        core.set_gate_log(Box::new(SharedSink(Arc::clone(&log))));
        let mut bare = IntervalSampler::new(indicator, 0.0, 0);
        let events = stream();
        for (n, chunk) in events.chunks(60).enumerate() {
            for event in chunk {
                assert_eq!(core.feed(event), None);
                bare.feed(event);
            }
            let at_ms = (n + 1) as f64 * 330.0;
            let (window, decision) = core.close_window(at_ms, 0);
            assert_eq!(decision, None);
            // Bit for bit: `Debug` prints each `f64` in its shortest
            // round-tripping form, and tells -0.0 from 0.0.
            let m = bare.harvest(at_ms);
            assert_eq!(format!("{:?}", window.measurement), format!("{m:?}"), "window {n}");
        }
        // A recorded decision closes the window but decides nothing.
        assert_eq!(core.feed(&GateEvent::Decision { at_ms: 2000.0, bound: 4 }), None);
        let (commits, aborts, _, decisions) = core.totals();
        assert_eq!((commits, aborts, decisions), (72, 18, 0));
        assert!(core.last_decision().is_none());
        assert_eq!(*log.lock(), events);
    }
}
