//! `ledger` — the layered performance ledger of the adaptive-load-control
//! workspace: four workloads measured end to end with harness tracing
//! off, and one traced run that attributes cost to every layer.
//!
//! ```text
//! ledger --bench-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ledger --bench-dir DIR [--seed N] [--seconds S] [--aa]
//! ledger --bench-dir DIR --manifest
//! ```
//!
//! With `--workload` and `--trace` it makes one run and prints one JSON
//! object as its last line (`correct`, `attempted`, `failed`, `metrics`):
//! the end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. Without them it runs every workload untraced and then the
//! traced ledger, printing every metric by name; `--aa` does that twice
//! and compares the two sets against the bounds in `BENCHMARK.json`.
//! Normally started through `benchmark/run.sh`, which builds it first.

// A benchmark times wall-clock by definition (the repo's clippy.toml
// bans it for the deterministic product code).
#![allow(clippy::disallowed_methods)]

mod catalog;
mod engine;
mod frozen;
mod host;
mod kernels;
mod ledger;
mod runtime;
mod sets;
mod spans;
mod stats;
mod traced;

use std::path::PathBuf;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::runtime::Mode;
use crate::spans::Recorder;
use crate::stats::Summary;

/// What one pass (or trial) over a workload's fixed batch cost and
/// produced.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall_s: f64,
    /// User + system CPU seconds of the whole process over the pass.
    pub cpu_s: f64,
    /// Units of work done: simulated commits (catalog), simulated events
    /// (engine), ops (runtime).
    pub work: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the outputs, where they repeat exactly.
    pub digest: Option<u64>,
}

impl Pass {
    fn work_per_s(&self) -> f64 {
        self.work as f64 / self.wall_s
    }
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Catalog,
    Engine,
    Runtime(Mode),
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Catalog,
        Workload::Engine,
        Workload::Runtime(Mode::Steady),
        Workload::Runtime(Mode::Overload),
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "catalog-full",
            Workload::Engine => "engine-protocols",
            Workload::Runtime(mode) => mode.name(),
        }
    }

    /// Passes a run makes even when `--seconds` is shorter than that:
    /// the catalog is never cut, the engine needs two passes to compare
    /// digests, a median of trials needs three.
    fn min_passes(self) -> usize {
        match self {
            Workload::Catalog => 1,
            Workload::Engine => 2,
            Workload::Runtime(_) => 3,
        }
    }
}

struct Options {
    bench_dir: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    aa: bool,
    manifest: bool,
    rustc: String,
    commit: String,
}

impl Options {
    fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger --bench-dir DIR [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--aa] [--manifest]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        bench_dir: PathBuf::from("benchmark"),
        workload: None,
        seed: 0,
        seconds: 15.0,
        trace: None,
        aa: false,
        manifest: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bench-dir" => o.bench_dir = PathBuf::from(value()),
            "--workload" => {
                let name = value();
                o.workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                o.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    usage();
                }
            }
            "--trace" => {
                o.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                });
            }
            "--aa" => o.aa = true,
            "--manifest" => o.manifest = true,
            "--rustc" => o.rustc = value(),
            "--commit" => o.commit = value(),
            _ => usage(),
        }
    }
    if o.workload.is_some() != o.trace.is_some() {
        usage();
    }
    o
}

/// One named measurement, with the spread of the repetitions behind it
/// where there were any.
struct Metric {
    name: String,
    value: f64,
    summary: Option<Summary>,
}

impl Metric {
    fn plain(name: impl Into<String>, value: f64) -> Self {
        Metric {
            name: name.into(),
            value,
            summary: None,
        }
    }

    fn median_of(name: &str, samples: &[f64]) -> Self {
        let summary = Summary::of(samples);
        Metric {
            name: name.into(),
            value: summary.median,
            summary: Some(summary),
        }
    }
}

/// The outcome of one run of one workload.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Digest of the outputs, where they repeat exactly: two sets of runs
    /// of one commit must print the same.
    digest: Option<u64>,
}

impl RunResult {
    /// The contract's result line.
    fn json_line(&self, defs: &[ledger::MetricDef]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(defs)
            .map(|(m, d)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, defs: &[ledger::MetricDef]) {
        for (m, d) in self.metrics.iter().zip(defs) {
            print!("  {:<52} {:>16.6} {:<6}", m.name, m.value, d.unit);
            if let Some(s) = m.summary {
                print!(
                    " n={} q1={:.6} median={:.6} q3={:.6}",
                    s.n, s.q1, s.median, s.q3
                );
            }
            println!();
        }
        if let Some(digest) = self.digest {
            println!("  {:<52} {digest:>16x} (exact)", "digest");
        }
        println!("  attempted {} failed {}", self.attempted, self.failed);
    }

    /// Panics when the run did not produce exactly the ledger's metrics:
    /// a harness bug, never a measurement.
    fn assert_matches(&self, defs: &[ledger::MetricDef]) {
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(got, want, "run metrics differ from the ledger");
        for m in &self.metrics {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
    }
}

/// Repeats `pass` until another one would overrun `seconds` (but at
/// least `min_passes` times).
fn passes_for(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass()?);
        let typical = stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if passes.len() >= min_passes && t0.elapsed().as_secs_f64() + typical > seconds {
            return Ok(passes);
        }
    }
}

/// Simulated horizon of the engine's set-up warm-up, ms.
const ENGINE_WARMUP_MS: f64 = engine::HORIZON_MS / 50.0;
/// The runtime's set-up warm-up trial is this fraction of a trial.
const RUNTIME_WARMUP_SHARE: u64 = 4;

/// The end-to-end run, harness tracing off: set-up once, whole passes
/// over the fixed batch for `--seconds`, then the set-up again
/// `SETUP_REPS` times, timed. The timed repetitions come last because
/// the first second or two after the host was idle run up to 40 % slow
/// (measured), and set-up is all a fresh process does in them.
fn run_untraced(o: &Options, w: Workload) -> Result<RunResult, String> {
    let off = Recorder::off;
    let threads = host::load_threads();
    // One repetition of the set-up (returning an output digest where it
    // has one) and one pass, per workload.
    type Setup<'a> = Box<dyn FnMut() -> Result<Option<u64>, String> + 'a>;
    type OnePass<'a> = Box<dyn FnMut() -> Result<Pass, String> + 'a>;
    let catalog;
    let (mut setup, pass): (Setup, OnePass) = match w {
        Workload::Catalog => {
            catalog = Catalog::open(&o.bench_dir, &o.out_dir().join(w.name()), o.seed)?;
            (
                Box::new(|| catalog.setup_once(&mut off())),
                Box::new(|| Ok(catalog.run_pass(false, &mut off())?.pass)),
            )
        }
        Workload::Engine => (
            Box::new(|| {
                engine::run_pass(o.seed, ENGINE_WARMUP_MS, &mut off());
                Ok(None)
            }),
            Box::new(|| Ok(engine::run_pass(o.seed, engine::HORIZON_MS, &mut off()).pass)),
        ),
        Workload::Runtime(mode) => {
            let trial =
                move |ops| runtime::run_trial(mode, threads, ops, o.seed, false, Instant::now());
            (
                Box::new(move || {
                    trial(mode.ops_per_thread() / RUNTIME_WARMUP_SHARE);
                    Ok(None)
                }),
                Box::new(move || Ok(trial(mode.ops_per_thread()).pass)),
            )
        }
    };
    let mut setup_digests = vec![setup()?];
    let passes = passes_for(o.seconds, w.min_passes(), pass)?;
    let setup_s = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            setup_digests.push(setup()?);
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect::<Result<Vec<f64>, String>>()?;

    let column = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let cpu = column(|p| p.cpu_s);
    let digests: Vec<u64> = passes.iter().filter_map(|p| p.digest).collect();
    let metrics = vec![
        Metric::median_of("wall_s", &column(|p| p.wall_s)),
        // The mean, not the median: /proc counts CPU in 10 ms ticks, and
        // a median of ticks would read the same on every run.
        Metric {
            name: "cpu_s".into(),
            value: cpu.iter().sum::<f64>() / cpu.len() as f64,
            summary: Some(Summary::of(&cpu)),
        },
        Metric::median_of("work_per_s", &column(Pass::work_per_s)),
        Metric::plain("peak_rss_mb", host::peak_rss_mb()),
        Metric::median_of("setup_s", &setup_s),
    ];
    Ok(RunResult {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        // The set-up repetitions double as a determinism check.
        failed: passes.iter().map(|p| p.failed).sum::<u64>()
            + u64::from(digests.windows(2).any(|d| d[0] != d[1]))
            + u64::from(setup_digests.windows(2).any(|d| d[0] != d[1])),
        metrics,
        digest: digests.first().copied(),
    })
}

fn run(o: &Options, w: Workload, traced: bool) -> RunResult {
    let result = if traced {
        traced::run_traced(o, w)
    } else {
        run_untraced(o, w)
    };
    let result = result.unwrap_or_else(|e| {
        eprintln!("ledger: {}: {e}", w.name());
        std::process::exit(1);
    });
    result.assert_matches(&if traced {
        ledger::per_layer()
    } else {
        ledger::end_to_end()
    });
    result
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("ledger: refusing to measure a debug build; use benchmark/run.sh");
        std::process::exit(2);
    }
    let o = parse_args();
    if o.manifest {
        match frozen::render_manifest(&o.bench_dir.join("workloads/catalog")) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("ledger: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "ledger: nproc={} T={} rustc=\"{}\" commit={} seed={} seconds={}",
        host::nproc(),
        host::load_threads(),
        o.rustc,
        o.commit,
        o.seed,
        o.seconds
    );
    match (o.workload, o.trace) {
        (Some(w), Some(traced)) => {
            let defs = if traced {
                ledger::per_layer()
            } else {
                ledger::end_to_end()
            };
            let result = run(&o, w, traced);
            println!(
                "{} ({})",
                w.name(),
                if traced {
                    "traced run, per layer"
                } else {
                    "end to end, tracing off"
                }
            );
            result.print(&defs);
            println!("{}", result.json_line(&defs));
        }
        _ => {
            let outcome = if o.aa {
                sets::run_aa(&o)
            } else {
                sets::run_set(&o).map(|set| set.iter().all(|(_, r)| r.failed == 0))
            };
            match outcome {
                Ok(true) if o.aa => println!("A/A: every end-to-end metric within its bound"),
                Ok(true) => {}
                Ok(false) => {
                    println!("FAILED");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("ledger: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
