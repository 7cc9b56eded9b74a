//! The traced run: every kernel, then one traced pass over each of the
//! four workloads, turned into the per-layer metrics.

use std::time::Instant;

use crate::catalog::Catalog;
use crate::runtime::Mode;
use crate::spans::{self, Recorder, Span};
use crate::{
    engine, host, kernels, runtime, stats, Metric, Options, Pass, RunResult, Workload,
    ENGINE_WARMUP_MS, RUNTIME_WARMUP_SHARE,
};

/// Trials of each runtime workload in the traced run.
const TRACED_TRIALS: usize = 3;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn median_ns(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans::durations_ns(spans, name)
        .iter()
        .map(|&n| n as f64)
        .collect();
    if d.is_empty() {
        f64::NAN
    } else {
        stats::median(&d)
    }
}

/// Writes one workload's spans where a trace viewer can open them.
fn write_trace(o: &Options, w: Workload, spans: &[Span]) -> Result<(), String> {
    let path = o.out_dir().join(format!("{}.trace.json", w.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    spans::write_chrome_trace(std::io::BufWriter::new(file), spans)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What the traced pass of one workload adds to the run's tallies.
#[derive(Default)]
struct Traced {
    attempted: u64,
    failed: u64,
    /// Work per host second of the traced pass.
    work_per_s: f64,
    /// The same for the untraced reference pass, when this workload is
    /// the one whose overhead the run reports.
    untraced_work_per_s: Option<f64>,
}

impl Traced {
    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// A deterministic workload's traced pass and, if it ran, the
    /// untraced reference, whose outputs must be the same.
    fn of(reference: Option<Pass>, traced: &Pass) -> Self {
        let mut t = Traced {
            work_per_s: traced.work_per_s(),
            ..Traced::default()
        };
        t.absorb(traced);
        if let Some(p) = reference {
            t.absorb(&p);
            t.failed += u64::from(p.digest != traced.digest);
            t.untraced_work_per_s = Some(p.work_per_s());
        }
        t
    }
}

fn traced_catalog(o: &Options, focus: bool, out: &mut Vec<Metric>) -> Result<Traced, String> {
    let w = Workload::Catalog;
    let catalog = Catalog::open(&o.bench_dir, &o.out_dir().join(w.name()), o.seed)?;
    let mut rec = Recorder::new(true, Instant::now(), 0);
    catalog.setup_once(&mut rec)?;
    let reference = match focus {
        true => Some(catalog.run_pass(false, &mut Recorder::off())?.pass),
        false => None,
    };
    let traced = catalog.run_pass(false, &mut rec)?;
    let mut t = Traced::of(reference, &traced.pass);
    let spans = rec.spans();
    t.failed += u64::from(!spans::self_times_reconcile(spans));
    write_trace(o, w, spans)?;

    let run_plan_s = spans::total_ns(spans, "run_plan") as f64 / 1e9;
    let slowest = spans::durations_ns(spans, "run_plan")
        .into_iter()
        .max()
        .unwrap_or(0);
    out.extend([
        Metric::plain("scenario.spec.read_ms", ms(spans::total_ns(spans, "read"))),
        Metric::plain(
            "scenario.compile.full_ms",
            ms(spans::total_ns(spans, "compile")),
        ),
        Metric::plain(
            "scenario.compile.quick_ms",
            ms(spans::total_ns(spans, "compile_quick")),
        ),
        Metric::plain("scenario.runner.run_plan_s", run_plan_s),
        Metric::plain("scenario.runner.cpu_s", traced.pass.cpu_s),
        Metric::plain(
            "scenario.runner.parallel_efficiency",
            traced.pass.cpu_s / (run_plan_s * rayon::current_num_threads() as f64),
        ),
        Metric::plain("scenario.runner.slowest_spec_s", slowest as f64 / 1e9),
        Metric::plain(
            "scenario.report.emit_ms",
            ms(spans::total_ns(spans, "report") + spans::total_ns(spans, "emit")),
        ),
        Metric::plain("scenario.runner.cells", traced.cells as f64),
        Metric::plain("scenario.runner.commits", traced.pass.work as f64),
    ]);
    Ok(t)
}

fn traced_engine(o: &Options, focus: bool, out: &mut Vec<Metric>) -> Result<Traced, String> {
    let w = Workload::Engine;
    let mut off = Recorder::off();
    engine::run_pass(o.seed, ENGINE_WARMUP_MS, &mut off);
    let reference = focus.then(|| engine::run_pass(o.seed, engine::HORIZON_MS, &mut off).pass);
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let traced = engine::run_pass(o.seed, engine::HORIZON_MS, &mut rec);
    let mut t = Traced::of(reference, &traced.pass);
    t.failed += u64::from(!spans::self_times_reconcile(rec.spans()));
    write_trace(o, w, rec.spans())?;

    for c in &traced.cells {
        out.push(Metric::plain(
            format!(
                "tpsim.engine.{}.{}.events_per_s",
                c.cc.name(),
                c.regime.name()
            ),
            c.events as f64 / c.run_s,
        ));
    }
    let high = traced
        .cells
        .iter()
        .filter(|c| c.regime == engine::Regime::High);
    let (commits, aborts) = high.fold((0, 0), |(c, a), cell| (c + cell.commits, a + cell.aborts));
    out.extend([
        Metric::plain("tpsim.engine.events", traced.pass.work as f64),
        Metric::plain(
            "tpsim.engine.commits",
            traced.cells.iter().map(|c| c.commits).sum::<u64>() as f64,
        ),
        Metric::plain(
            "tpsim.engine.aborts",
            traced.cells.iter().map(|c| c.aborts).sum::<u64>() as f64,
        ),
        Metric::plain(
            "tpsim.engine.useful_ratio",
            commits as f64 / (commits + aborts) as f64,
        ),
    ]);
    Ok(t)
}

/// Host ns inside `admit()` + `complete()` of every sampled op.
fn op_latencies_ns(spans: &[Span]) -> Vec<f64> {
    let mut by_op = vec![0.0; spans.len()];
    for s in spans
        .iter()
        .filter(|s| matches!(s.name, "admit" | "complete"))
    {
        if let Some(p) = s.parent {
            by_op[p] += s.dur_ns() as f64;
        }
    }
    (0..spans.len())
        .filter(|&i| spans[i].name == "op")
        .map(|i| by_op[i])
        .collect()
}

/// The traced trials of one runtime workload.
struct TracedRuntime {
    traced: Traced,
    rec: Recorder,
    tallies: Vec<runtime::Tally>,
    /// Ops per host second of each trial.
    rates: Vec<f64>,
}

fn traced_runtime(o: &Options, mode: Mode, focus: bool) -> Result<TracedRuntime, String> {
    let threads = host::load_threads();
    let epoch = Instant::now();
    let trial = |ops, traced| runtime::run_trial(mode, threads, ops, o.seed, traced, epoch);
    trial(mode.ops_per_thread() / RUNTIME_WARMUP_SHARE, false);
    let mut t = Traced::default();
    if focus {
        let rates: Vec<f64> = (0..TRACED_TRIALS)
            .map(|_| {
                let p = trial(mode.ops_per_thread(), false).pass;
                t.absorb(&p);
                p.work_per_s()
            })
            .collect();
        t.untraced_work_per_s = Some(stats::median(&rates));
    }
    let trials: Vec<runtime::Trial> = (0..TRACED_TRIALS)
        .map(|_| trial(mode.ops_per_thread(), true))
        .collect();
    let mut all = Recorder::new(true, epoch, 0);
    let mut tallies = Vec::new();
    let mut rates = Vec::new();
    for tr in trials {
        t.absorb(&tr.pass);
        rates.push(tr.pass.work_per_s());
        tallies.push(tr.tally);
        all.absorb(tr.rec);
    }
    t.failed += u64::from(!spans::self_times_reconcile(all.spans()));
    t.work_per_s = stats::median(&rates);
    write_trace(o, Workload::Runtime(mode), all.spans())?;
    Ok(TracedRuntime {
        traced: t,
        rec: all,
        tallies,
        rates,
    })
}

/// The traced run: every kernel, then one traced pass over each of the
/// four workloads — the whole ledger, whichever workload is named. The
/// named workload is also run untraced, and the ratio of the two is the
/// tracing overhead.
pub fn run_traced(o: &Options, focus: Workload) -> Result<RunResult, String> {
    std::fs::create_dir_all(o.out_dir()).map_err(|e| format!("{}: {e}", o.out_dir().display()))?;
    let mut metrics: Vec<Metric> = kernels::run_all()
        .into_iter()
        .map(|(name, value)| Metric::plain(name, value))
        .collect();

    let mut parts = vec![
        traced_catalog(o, focus == Workload::Catalog, &mut metrics)?,
        traced_engine(o, focus == Workload::Engine, &mut metrics)?,
    ];

    let steady = traced_runtime(o, Mode::Steady, focus == Workload::Runtime(Mode::Steady))?;
    let overload = traced_runtime(
        o,
        Mode::Overload,
        focus == Workload::Runtime(Mode::Overload),
    )?;
    let latencies = op_latencies_ns(steady.rec.spans());
    let rates = &steady.rates;
    let (arrivals, shed) = overload
        .tallies
        .iter()
        .fold((0, 0), |(a, s), t| (a + t.arrivals, s + t.shed));
    metrics.extend([
        Metric::plain(
            "runtime.control.admit_ns",
            median_ns(steady.rec.spans(), "admit"),
        ),
        Metric::plain(
            "runtime.control.complete_ns",
            median_ns(steady.rec.spans(), "complete"),
        ),
        Metric::plain(
            "runtime.control.shed_ns",
            median_ns(overload.rec.spans(), "shed"),
        ),
        Metric::plain(
            "runtime.control.tick_ns",
            median_ns(steady.rec.spans(), "tick"),
        ),
        Metric::plain(
            "runtime.control.metrics_ns",
            median_ns(steady.rec.spans(), "metrics"),
        ),
        Metric::plain("runtime.control.op_p50_ns", stats::median(&latencies)),
        Metric::plain(
            "runtime.control.op_p99_ns",
            stats::quantile(&latencies, 0.99),
        ),
        Metric::plain("runtime.control.shed_share", shed as f64 / arrivals as f64),
        Metric::plain(
            "runtime.control.ticks",
            steady.tallies.iter().map(|t| t.ticks).sum::<u64>() as f64,
        ),
        Metric::plain(
            "runtime.control.trial_spread",
            rates.iter().copied().fold(f64::MIN, f64::max)
                / rates.iter().copied().fold(f64::MAX, f64::min),
        ),
    ]);
    parts.extend([steady.traced, overload.traced]);

    let focused = parts
        .iter()
        .find_map(|p| p.untraced_work_per_s.map(|u| u / p.work_per_s))
        .expect("the named workload ran untraced too");
    metrics.push(Metric::plain("harness.trace_overhead", focused));
    Ok(RunResult {
        attempted: parts.iter().map(|p| p.attempted).sum(),
        failed: parts.iter().map(|p| p.failed).sum(),
        metrics,
        digest: None,
    })
}
