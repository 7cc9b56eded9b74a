//! `runtime-steady` and `runtime-overload`: `T` worker threads drive one
//! `ControlLoop` the way an embedder does (`examples/embed_gate.rs`):
//! `admit()` → a fixed unit of work → `complete()`, with thread 0 calling
//! `tick()` on a count-based cadence. Bypasses the simulator, the spec
//! front end and the runner entirely.
//!
//! Both are closed loops of `T` callers and never block: a blocking
//! saturated gate measures the kernel's futex wake, not the program (see
//! the README for the prototype's numbers).

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use alc_core::controller::{IncrementalSteps, IsParams};
use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, AdmittedPermit, ControlLoop, Outcome, PaperLaw};

use crate::spans::Recorder;
use crate::{host, Pass};

/// Xorshift steps per unit of work: count-based, so the unit is the same
/// instructions on every host (≈0.6 µs here).
const WORK_STEPS: u32 = 600;
/// Every `ABORT_EVERY`-th completion reports an abort.
const ABORT_EVERY: u64 = 16;
/// Thread 0 ticks after every `TICK_EVERY` of its own ops.
const TICK_EVERY: u64 = 4096;
/// Every `SAMPLE_EVERY`-th op is wrapped in spans when tracing is on.
pub const SAMPLE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Bound ≫ callers, `Queue` policy: nothing waits, nothing is shed;
    /// the cost is the shell's locks and telemetry.
    Steady,
    /// `Shed` policy at a small bound: each caller offers two arrivals
    /// per completion, so about half are refused.
    Overload,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Steady => "runtime-steady",
            Mode::Overload => "runtime-overload",
        }
    }

    /// Ops each thread offers per trial: about 0.3 s here. Many short
    /// trials give a steadier median than a few long ones.
    pub fn ops_per_thread(self) -> u64 {
        match self {
            Mode::Steady => 100_000,
            Mode::Overload => 200_000,
        }
    }

    fn is_params(self) -> IsParams {
        let (initial_bound, min_bound, max_bound) = match self {
            Mode::Steady => (64, 64, 256),
            Mode::Overload => (8, 2, 64),
        };
        IsParams {
            initial_bound,
            min_bound,
            max_bound,
            ..IsParams::default()
        }
    }

    /// The loop under test: the paper's Incremental Steps controller run
    /// unchanged through `PaperLaw`.
    pub fn build_loop(self) -> ControlLoop {
        ControlLoop::new(
            Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(
                self.is_params(),
            )))),
            PerfIndicator::Throughput,
            match self {
                Mode::Steady => AdmissionPolicy::Queue,
                Mode::Overload => AdmissionPolicy::Shed,
            },
        )
    }
}

/// What one worker (or a whole trial, summed) offered to the loop and
/// saw come back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub arrivals: u64,
    pub admitted: u64,
    pub shed: u64,
    pub commits: u64,
    pub aborts: u64,
    pub ticks: u64,
    /// Samples (one per tick) at which more permits were out than the
    /// law's ceiling allows.
    pub over_ceiling: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.arrivals += o.arrivals;
        self.admitted += o.admitted;
        self.shed += o.shed;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.ticks += o.ticks;
        self.over_ceiling += o.over_ceiling;
    }
}

/// One worker: its private work state, input stream and bookkeeping.
struct Worker<'a> {
    rt: &'a ControlLoop,
    mode: Mode,
    /// Thread 0 also closes measurement windows.
    ticker: bool,
    tid: u64,
    rng: u64,
    completions: u64,
    own_ops: u64,
    tally: Tally,
}

impl<'a> Worker<'a> {
    fn new(rt: &'a ControlLoop, mode: Mode, tid: usize, seed: u64) -> Self {
        Worker {
            rt,
            mode,
            ticker: tid == 0,
            tid: tid as u64,
            // The seed fixes each thread's work stream, response times
            // and which completions abort.
            rng: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tid as u64 + 1)
                | 1,
            completions: seed % ABORT_EVERY,
            own_ops: 0,
            tally: Tally::default(),
        }
    }

    /// The unit of work: a serial xorshift chain (an affine recurrence
    /// would be folded into a closed form by the compiler).
    fn work(&mut self) {
        let mut x = self.rng;
        for _ in 0..WORK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.rng = black_box(x);
    }

    fn arrive(
        &mut self,
        rec: &mut Recorder,
        traced: bool,
        op_id: u64,
    ) -> Option<AdmittedPermit<'a>> {
        self.tally.arrivals += 1;
        let rt = self.rt;
        let permit = rec.span_if(traced, "admit", op_id, |_| rt.admit());
        if traced && permit.is_none() {
            rec.rename_last("shed");
        }
        match permit {
            Some(_) => self.tally.admitted += 1,
            None => self.tally.shed += 1,
        }
        permit
    }

    fn complete(
        &mut self,
        permit: AdmittedPermit<'a>,
        rec: &mut Recorder,
        traced: bool,
        op_id: u64,
    ) {
        self.completions += 1;
        let outcome = if self.completions.is_multiple_of(ABORT_EVERY) {
            self.tally.aborts += 1;
            Outcome::Abort { conflicts: 1 }
        } else {
            self.tally.commits += 1;
            Outcome::Commit {
                response_ms: 1.0 + (self.rng >> 60) as f64,
                conflicts: 0,
            }
        };
        let rt = self.rt;
        rec.span_if(traced, "complete", op_id, |_| rt.complete(permit, outcome));
    }

    /// Thread 0's cadence: close the window, then read the loop's
    /// metrics the way an exporter would and check the gate's ceiling.
    fn after_op(&mut self, rec: &mut Recorder) {
        self.own_ops += 1;
        if !self.ticker || !self.own_ops.is_multiple_of(TICK_EVERY) {
            return;
        }
        let rt = self.rt;
        rec.span("tick", "", self.tally.ticks, |_| rt.tick());
        let m = rec.span("metrics", "", self.tally.ticks, |_| rt.metrics());
        self.tally.ticks += 1;
        self.tally.over_ceiling += u64::from(m.in_use > self.mode.is_params().max_bound);
    }

    /// `runtime-steady`: `ops` times admit → work → complete.
    fn run_steady(&mut self, ops: u64, rec: &mut Recorder) {
        for i in 0..ops {
            let op_id = self.tid << 40 | i;
            let traced = rec.enabled() && i % SAMPLE_EVERY == 0;
            rec.span_if(traced, "op", op_id, |rec| {
                let permit = self
                    .arrive(rec, traced, op_id)
                    .expect("the Queue policy never sheds");
                rec.span_if(traced, "work", op_id, |_| self.work());
                self.complete(permit, rec, traced, op_id);
            });
            self.after_op(rec);
        }
    }

    /// `runtime-overload`: a ring of outstanding permits; each iteration
    /// offers two arrivals, completes the oldest permit and does the
    /// next one's unit of work, so the gate stays full and about half of
    /// the arrivals are refused. The work sits between a completion and
    /// the caller's next arrivals: that is the window in which another
    /// caller gets the freed slot, so no caller starves for long.
    /// `ops` counts arrivals. When traced, an `op` span is one iteration.
    fn run_overload(&mut self, ops: u64, rec: &mut Recorder) {
        let mut ring: VecDeque<AdmittedPermit<'a>> = VecDeque::with_capacity(128);
        for i in 0..ops / 2 {
            let op_id = self.tid << 40 | i;
            let traced = rec.enabled() && i % (SAMPLE_EVERY / 2) == 0;
            rec.span_if(traced, "op", op_id, |rec| {
                for _ in 0..2 {
                    ring.extend(self.arrive(rec, traced, op_id));
                }
                if let Some(permit) = ring.pop_front() {
                    self.complete(permit, rec, traced, op_id);
                }
                rec.span_if(traced, "work", op_id, |_| self.work());
            });
            self.after_op(rec);
        }
        while let Some(permit) = ring.pop_front() {
            self.complete(permit, rec, false, 0);
        }
    }

    fn run(&mut self, ops: u64, rec: &mut Recorder) {
        match self.mode {
            Mode::Steady => self.run_steady(ops, rec),
            Mode::Overload => self.run_overload(ops, rec),
        }
    }
}

/// Pins the loop's position relative to cache lines: on the stack it
/// would otherwise shift with every process's stack randomisation, and
/// which of its locks share a line is a speed difference of several
/// percent that has nothing to do with the code under test.
#[repr(align(128))]
struct CacheAligned(ControlLoop);

/// One trial: a fresh loop, `threads` workers released together, each
/// offering `ops_per_thread` ops.
pub struct Trial {
    pub pass: Pass,
    pub tally: Tally,
    /// Every worker's spans (empty when the trial ran untraced).
    pub rec: Recorder,
}

/// Ops that broke a conservation law between what the workers issued and
/// what the loop reports: completions = commits + aborts, refusals =
/// sheds, ticks = decisions, the gate empty after the drain and never
/// above the law's ceiling, and — under overload — a shed share inside
/// the designed band: one half when every caller holds permits, more
/// while one of them is starved of them, never everything.
pub fn violations(mode: Mode, tally: &Tally, rt: &ControlLoop) -> u64 {
    let m = rt.metrics();
    let shed_share = tally.shed as f64 / tally.arrivals.max(1) as f64;
    let laws = [
        (
            "commits reported != commits issued",
            m.commits.abs_diff(tally.commits),
        ),
        (
            "aborts reported != aborts issued",
            m.aborts.abs_diff(tally.aborts),
        ),
        (
            "sheds reported != refusals seen",
            m.sheds.abs_diff(tally.shed),
        ),
        (
            "decisions != ticks issued",
            m.decisions.abs_diff(tally.ticks),
        ),
        (
            "admitted + shed != arrivals",
            (tally.admitted + tally.shed).abs_diff(tally.arrivals),
        ),
        (
            "completions != admitted",
            (tally.commits + tally.aborts).abs_diff(tally.admitted),
        ),
        ("permits out after the drain", u64::from(rt.gate().in_use())),
        ("in_use above the law's ceiling", tally.over_ceiling),
        match mode {
            Mode::Steady => ("the Queue policy shed", tally.shed),
            Mode::Overload => (
                "shed share outside [0.45, 0.9]",
                u64::from(!(0.45..=0.9).contains(&shed_share)),
            ),
        },
    ];
    for (law, by) in laws.iter().filter(|(_, by)| *by > 0) {
        eprintln!(
            "ledger: {}: {law} (by {by}; shed share {shed_share:.3})",
            mode.name()
        );
    }
    laws.iter().map(|(_, by)| by).sum()
}

pub fn run_trial(
    mode: Mode,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
    traced: bool,
    epoch: Instant,
) -> Trial {
    let rt = Box::new(CacheAligned(mode.build_loop()));
    let rt = &rt.0;
    let start = Barrier::new(threads + 1);
    let (mut tally, mut all) = (Tally::default(), Recorder::new(traced, epoch, 0));
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let start = &start;
                s.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, tid as u32);
                    let mut worker = Worker::new(rt, mode, tid, seed);
                    start.wait();
                    worker.run(ops_per_thread, &mut rec);
                    (worker.tally, rec)
                })
            })
            .collect();
        start.wait();
        let cpu0 = host::cpu_s();
        let t0 = Instant::now();
        for h in handles {
            let (t, rec) = h.join().expect("worker thread panicked");
            tally.add(&t);
            all.absorb(rec);
        }
        wall_s = t0.elapsed().as_secs_f64();
        cpu_s = host::cpu_s() - cpu0;
    });
    let failed = violations(mode, &tally, rt);
    Trial {
        pass: Pass {
            wall_s,
            cpu_s,
            work: tally.arrivals,
            attempted: tally.arrivals,
            failed,
            // Steady trials repeat their counts exactly; under overload
            // which arrival meets a full gate depends on the interleaving.
            digest: (mode == Mode::Steady).then_some(tally.commits << 32 | tally.aborts),
        },
        tally,
        rec: all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Span;

    fn single_threaded(mode: Mode, ops: u64, traced: bool) -> (Tally, Vec<Span>, u64) {
        let rt = mode.build_loop();
        let mut rec = Recorder::new(traced, Instant::now(), 0);
        let mut w = Worker::new(&rt, mode, 0, 3);
        w.run(ops, &mut rec);
        let bad = violations(mode, &w.tally, &rt);
        (w.tally, rec.spans().to_vec(), bad)
    }

    /// The overload ring against a single-threaded loop: with one caller
    /// the gate (bound ≥ 2) fills at one net permit per iteration, after
    /// which exactly one of every two arrivals is shed; everything
    /// admitted is completed by the drain.
    #[test]
    fn overload_ring_bookkeeping() {
        let ops = 4 * TICK_EVERY;
        let (t, _, bad) = single_threaded(Mode::Overload, ops, false);
        assert_eq!(t.arrivals, ops);
        assert_eq!(t.admitted + t.shed, t.arrivals);
        assert_eq!(t.commits + t.aborts, t.admitted);
        assert_eq!(t.ticks, ops / 2 / TICK_EVERY);
        // Admitted = one per iteration plus the ring's standing content,
        // which the law's ceiling bounds.
        let standing = t.admitted - ops / 2;
        assert!((1..=64).contains(&standing), "standing {standing}");
        assert_eq!(t.shed, ops / 2 - standing);
        assert_eq!(t.aborts, (3 + t.admitted) / ABORT_EVERY);
        assert_eq!(bad, 0);
    }

    #[test]
    fn steady_never_sheds_and_conserves() {
        let (t, _, bad) = single_threaded(Mode::Steady, 2 * TICK_EVERY, false);
        assert_eq!(
            (t.arrivals, t.admitted, t.shed),
            (2 * TICK_EVERY, 2 * TICK_EVERY, 0)
        );
        assert_eq!(t.ticks, 2);
        assert_eq!(bad, 0);
    }

    #[test]
    fn violations_catch_a_lost_completion() {
        let rt = Mode::Steady.build_loop();
        let mut w = Worker::new(&rt, Mode::Steady, 0, 0);
        w.run(32, &mut Recorder::off());
        let mut tally = w.tally;
        assert_eq!(violations(Mode::Steady, &tally, &rt), 0);
        tally.commits += 1;
        assert!(violations(Mode::Steady, &tally, &rt) > 0);
        let held = rt.admit();
        assert!(
            violations(Mode::Steady, &w.tally, &rt) > 0,
            "a permit still out is a violation"
        );
        drop(held);
    }

    /// Tracing samples every 64th op as `op{admit|shed, work, complete}`
    /// with a shared op id, and the sampled spans reconcile.
    #[test]
    fn traced_ops_carry_their_children() {
        let (_, spans, _) = single_threaded(Mode::Steady, 4 * SAMPLE_EVERY, true);
        let ops: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "op")
            .collect();
        assert_eq!(ops.len(), 4);
        for &o in &ops {
            let kids: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == Some(o))
                .inspect(|s| assert_eq!(s.op_id, spans[o].op_id))
                .map(|s| s.name)
                .collect();
            assert_eq!(kids, ["admit", "work", "complete"]);
        }
        assert!(crate::spans::self_times_reconcile(&spans));

        let (t, spans, _) = single_threaded(Mode::Overload, 2 * TICK_EVERY, true);
        let shed = spans.iter().filter(|s| s.name == "shed").count() as u64;
        let admit = spans.iter().filter(|s| s.name == "admit").count() as u64;
        assert_eq!(
            shed + admit,
            2 * spans.iter().filter(|s| s.name == "op").count() as u64
        );
        assert!(shed > 0 && shed < t.shed);
        assert_eq!(
            spans.iter().filter(|s| s.name == "tick").count() as u64,
            t.ticks
        );
    }
}
