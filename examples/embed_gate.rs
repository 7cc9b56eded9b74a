//! Embedding the admission-control runtime in a threaded server.
//!
//! A pool of worker threads pushes jobs through [`alc_runtime::ControlLoop`]:
//! each worker calls `admit()` before its unit of work and
//! `complete(outcome)` after, while a ticker thread closes the
//! measurement window at a fixed cadence so the control law can move the
//! MPL bound. The law here is the paper's Incremental Steps controller,
//! run *unchanged* through the [`PaperLaw`] adapter — the same object the
//! simulator validates.
//!
//! The simulated "work" degrades when too many jobs run at once (think
//! lock contention): latency grows cubically with concurrency, and jobs
//! racing past a soft capacity occasionally abort. The controller only
//! ever sees its telemetry window, yet settles near the sweet spot.
//!
//! The run also captures a JSONL gate log and reads it back — the same
//! format `scenario run --gate-log` emits and `scenario replay` checks
//! conformance against. `scenarios/embed-gate.json` carries the same
//! controller as a spec, so the captured log replays through
//!
//! ```sh
//! cargo run --release --example embed_gate -- target/embed
//! scenario replay scenarios/embed-gate.json target/embed/embed_gate_gatelog.jsonl
//! ```
//!
//! (CI does exactly that.) Each tick also snapshots
//! [`ControlLoop::metrics`]; the series is exported as metrics JSONL
//! and read back, asserting the byte round trip.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use adaptive_load_control::core::controller::{IncrementalSteps, IsParams};
use adaptive_load_control::core::PerfIndicator;
use adaptive_load_control::runtime::{
    read_gate_log, read_metrics_jsonl, write_metrics_jsonl, AdmissionPolicy, ControlLoop,
    GateLogHeader, JsonlSink, Outcome, PaperLaw,
};

const WORKERS: usize = 8;
const JOBS_PER_WORKER: usize = 120;
const TICK: Duration = Duration::from_millis(25);

fn main() {
    let controller = IncrementalSteps::new(IsParams {
        initial_bound: 2,
        min_bound: 1,
        max_bound: 32,
        beta: 0.05,
        min_step: 1.0,
        max_step: 4.0,
        ..IsParams::default()
    });
    let rt = Arc::new(ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(controller))),
        PerfIndicator::Throughput,
        AdmissionPolicy::QueueTimeout(Duration::from_millis(250)),
    ));

    // Artifacts land in the directory named by the first CLI argument
    // (so CI can pick them up), or the temp dir when run bare.
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(std::env::temp_dir, std::path::PathBuf::from);
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // Capture everything the loop sees as a JSONL gate log.
    let log_path = out_dir.join("embed_gate_gatelog.jsonl");
    let header = GateLogHeader {
        scenario: "embed_gate".to_string(),
        variant: String::new(),
        replication: 0,
        seed: 0,
        quick: false,
    };
    let file = std::fs::File::create(&log_path).expect("create gate log");
    let sink = JsonlSink::new(std::io::BufWriter::new(file), &header).expect("write header");
    rt.set_gate_log(Box::new(sink));

    // Ticker: closes the measurement window at a fixed cadence.
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last_bound = 0;
            let mut snapshots = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(TICK);
                let d = rt.tick();
                snapshots.push(rt.metrics());
                if d.bound != last_bound {
                    println!(
                        "  t={:6.0}ms  bound {:>2} -> {:>2}  (tput {:6.1}/s, p95 {:5.1}ms, shed {})",
                        d.at_ms,
                        last_bound,
                        d.bound,
                        d.window.measurement.throughput_per_sec(),
                        d.window.p95_ms,
                        d.window.shed
                    );
                    last_bound = d.bound;
                }
            }
            snapshots
        })
    };

    // Worker pool: admit -> work -> complete. Work degrades with
    // concurrency; overshoot makes aborts likelier.
    let running = Arc::new(AtomicU64::new(0));
    let shed_total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let rt = Arc::clone(&rt);
            let running = Arc::clone(&running);
            let shed_total = Arc::clone(&shed_total);
            s.spawn(move || {
                for j in 0..JOBS_PER_WORKER {
                    let Some(permit) = rt.admit() else {
                        shed_total.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let n = running.fetch_add(1, Ordering::Relaxed) + 1;
                    let base = 1.0 + ((w * 31 + j * 7) % 3) as f64;
                    let millis = base * (1.0 + (n as f64 / 10.0).powi(3));
                    std::thread::sleep(Duration::from_secs_f64(millis / 1000.0));
                    running.fetch_sub(1, Ordering::Relaxed);
                    // Past the soft capacity, contention turns into aborts.
                    let outcome = if n > 12 && (w + j) % 3 == 0 {
                        Outcome::Abort { conflicts: n }
                    } else {
                        Outcome::Commit {
                            response_ms: millis,
                            conflicts: u64::from(n > 8),
                        }
                    };
                    rt.complete(permit, outcome);
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    let snapshots = ticker.join().expect("ticker thread");

    let stats = rt.gate().stats();
    println!(
        "\ndone: {} admitted, {} abandoned at the gate, {} shed by workers, final bound {}",
        stats.total_admitted,
        stats.total_abandoned,
        shed_total.load(Ordering::Relaxed),
        rt.gate().limit()
    );

    // Flush the log (dropping the boxed sink flushes its BufWriter) and
    // read it back — the round trip `scenario replay` builds on.
    drop(rt.take_gate_log());
    let file = std::fs::File::open(&log_path).expect("open gate log");
    let (read_header, events) =
        read_gate_log(std::io::BufReader::new(file)).expect("parse gate log");
    assert_eq!(read_header.expect("header").scenario, "embed_gate");
    println!(
        "gate log: {} events captured at {}",
        events.len(),
        log_path.display()
    );

    // Export the per-tick metrics snapshots and prove the JSONL round
    // trip: read back equal, re-serialize byte-identical.
    let metrics_path = out_dir.join("embed_gate_metrics.jsonl");
    let mut buf = Vec::new();
    write_metrics_jsonl(&mut buf, &snapshots).expect("serialize metrics");
    std::fs::write(&metrics_path, &buf).expect("write metrics");
    let back = read_metrics_jsonl(std::io::BufReader::new(
        std::fs::File::open(&metrics_path).expect("open metrics"),
    ))
    .expect("parse metrics");
    assert_eq!(back, snapshots, "metrics JSONL round-trips");
    let mut again = Vec::new();
    write_metrics_jsonl(&mut again, &back).expect("re-serialize metrics");
    assert_eq!(again, buf, "metrics JSONL is byte-stable");
    println!(
        "metrics: {} snapshot(s) round-tripped at {}",
        snapshots.len(),
        metrics_path.display()
    );
}
