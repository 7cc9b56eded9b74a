//! `scenario trace` — run one `(variant, replication)` cell with the
//! Chrome-trace sink installed and reconcile the emitted events against
//! the run's own report counters.
//!
//! The cell is [`VariantPlan::simulator`], the engine [`crate::runner`]
//! runs, with a [`Tee`] of two sinks installed before the run: a streaming
//! [`ChromeWriter`] producing the Perfetto-loadable
//! `<stem>_trace.json`, and a [`CountingSink`] whose tallies are
//! checked against the run's [`RunStats`] / [`ClientStats`] after the
//! run. Every identity is structural — "commits equals attempt-spans
//! ending in `commit`", "every span opened was closed" — so a drifting
//! emission site fails the command rather than silently skewing the
//! timeline.

use std::io;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

use alc_tpsim::engine::RunStats;
use alc_tpsim::ClientStats;
use alc_trace::{
    name as tname, ChromeWriter, CountingSink, Phase, Tee, TraceEvent, TraceSink,
};

use crate::compile::{RunPlan, VariantPlan};
use crate::runner::cell_file_name;

/// A [`TraceSink`] behind a shared handle, so the caller can recover
/// the inner sink after the simulator consumes the boxed tee.
struct SharedSink<T: TraceSink>(Arc<Mutex<T>>);

impl<T: TraceSink> TraceSink for SharedSink<T> {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).emit(ev);
    }
}

/// Recovers the inner sink once the simulator has dropped its handle
/// (i.e. after `take_trace_sink`).
fn recover<T>(handle: Arc<Mutex<T>>) -> T {
    Arc::try_unwrap(handle)
        .ok()
        .expect("simulator released its sink handle in take_trace_sink")
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// One reconciliation identity: a report-side counter against the
/// trace-side tally that must equal it.
#[derive(Debug, Clone)]
pub struct TraceCheck {
    /// The identity, in words (e.g. `commits == attempt commit ends`).
    pub what: String,
    /// The report-side count.
    pub report: u64,
    /// The trace-side count.
    pub trace: u64,
}

impl TraceCheck {
    /// Whether the identity held.
    pub fn ok(&self) -> bool {
        self.report == self.trace
    }
}

/// The outcome of tracing one cell.
#[derive(Debug)]
pub struct TraceOutcome {
    /// File name written under the output directory.
    pub file_name: String,
    /// Total trace events emitted (all kinds, warmup included).
    pub events: u64,
    /// Span-begin events across all lanes.
    pub span_begins: u64,
    /// Span-end events across all lanes.
    pub span_ends: u64,
    /// The first unbalanced `(pid, tid, name, begins, ends)` lane, if
    /// any span was opened but never closed (or vice versa).
    pub unbalanced: Option<(u32, u32, &'static str, u64, u64)>,
    /// The reconciliation identities and their two sides.
    pub checks: Vec<TraceCheck>,
    /// The run's own statistics — equal to the untraced run's, since
    /// tracing draws no randomness and schedules no events.
    pub stats: RunStats,
    /// The run's client-pool counters (when the plan has `clients`).
    pub clients: Option<ClientStats>,
}

impl TraceOutcome {
    /// Whether every span balanced and every identity held.
    pub fn ok(&self) -> bool {
        self.unbalanced.is_none() && self.checks.iter().all(TraceCheck::ok)
    }
}

/// Runs one `(variant, replication)` cell with tracing on, writes its
/// Chrome-trace JSON into `dir`, and reconciles the counting sink
/// against the run's report counters.
pub fn trace_cell(
    plan: &RunPlan,
    v: &VariantPlan,
    rep: usize,
    dir: &Path,
) -> io::Result<TraceOutcome> {
    std::fs::create_dir_all(dir)?;
    let file_name = cell_file_name(plan, v, rep as u32, "trace.json");
    let mut sim = v.simulator(rep);

    let writer = ChromeWriter::new(io::BufWriter::new(std::fs::File::create(
        dir.join(&file_name),
    )?))?;
    let chrome = Arc::new(Mutex::new(writer));
    // Mirror `Simulator::run`: the window resets only when warmup is
    // positive, and warmup is clamped to the horizon.
    let warmup = v.cell.control.warmup_ms.min(v.cell.horizon_ms);
    let counting = if warmup > 0.0 {
        CountingSink::with_floor(warmup)
    } else {
        CountingSink::new()
    };
    let counts = Arc::new(Mutex::new(counting));
    sim.set_trace_sink(Box::new(Tee(
        SharedSink(Arc::clone(&chrome)),
        SharedSink(Arc::clone(&counts)),
    )));

    let stats = sim.run(v.cell.horizon_ms);
    let clients = sim.client_stats();
    // Closes still-open spans at the horizon and drops the boxed tee,
    // releasing the shared handles for recovery below.
    drop(sim.take_trace_sink());
    recover(chrome).finish()?.flush()?;
    let c = recover(counts);

    let mut checks = Vec::new();
    let mut check = |what: &str, report: u64, trace: u64| {
        checks.push(TraceCheck {
            what: what.to_string(),
            report,
            trace,
        });
    };
    check(
        "commits == attempt commit ends",
        stats.commits,
        c.outcome(tname::ATTEMPT, "commit").after_floor,
    );
    check(
        "aborts == run abort/displaced + restart-wait displaced ends",
        stats.aborts,
        c.outcome(tname::RUN, "abort").after_floor
            + c.outcome(tname::RUN, "displaced").after_floor
            + c.outcome(tname::RESTART_WAIT, "displaced").after_floor,
    );
    check(
        "displaced == attempt displaced ends",
        stats.displaced,
        c.outcome(tname::ATTEMPT, "displaced").after_floor,
    );
    if let Some(cs) = &clients {
        check(
            "clients.committed == attempt commit ends",
            cs.committed,
            c.outcome(tname::ATTEMPT, "commit").after_floor,
        );
        check(
            "clients.timeouts == client.timeout instants",
            cs.timeouts,
            c.count(Phase::Mark, tname::CLIENT_TIMEOUT).after_floor,
        );
        check(
            "clients.shed == client.shed instants",
            cs.shed,
            c.count(Phase::Mark, tname::CLIENT_SHED).after_floor,
        );
        check(
            "clients.abandoned == client.abandon instants",
            cs.abandoned,
            c.count(Phase::Mark, tname::CLIENT_ABANDON).after_floor,
        );
        check(
            "clients.retries == retry flow ends",
            cs.retries,
            c.count(Phase::FlowEnd, tname::RETRY).after_floor,
        );
    }
    let scheduled_faults = v.fault_timelines[rep]
        .iter()
        .filter(|(at, _)| *at <= v.cell.horizon_ms)
        .count() as u64;
    if scheduled_faults > 0 {
        check(
            "fault schedule == fault instants (whole run)",
            scheduled_faults,
            c.count(Phase::Mark, tname::FAULT).total,
        );
    }

    Ok(TraceOutcome {
        file_name,
        events: c.total(),
        span_begins: c.span_begins(),
        span_ends: c.span_ends(),
        unbalanced: c.first_unbalanced(),
        checks,
        stats,
        clients,
    })
}

/// Validates a written trace file: it must parse as a JSON object whose
/// `traceEvents` member is a list. Returns the event count.
pub fn validate_trace_file(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let value: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let serde::Value::Map(entries) = &value else {
        return Err(String::from("top level is not a JSON object"));
    };
    let Some((_, events)) = entries.iter().find(|(k, _)| k == "traceEvents") else {
        return Err(String::from("missing `traceEvents` member"));
    };
    let serde::Value::Seq(items) = events else {
        return Err(String::from("`traceEvents` is not a list"));
    };
    Ok(items.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_value;

    fn plan_from(json: &str) -> RunPlan {
        let tree: serde::Value = serde_json::from_str(json).expect("fixture parses");
        compile_value(&tree, Path::new("."), false).expect("fixture compiles")
    }

    const BASIC: &str = r#"{
        "name": "trace-unit", "horizon_ms": 5000.0, "seed": 7,
        "system": {"terminals": 30, "think": {"exponential": 250}},
        "control": {"sample_interval_ms": 500.0, "warmup_ms": 1000.0},
        "workload": {"k": {"step": {"at": 2500.0, "before": 4, "after": 8}}},
        "controller": {"is": {"initial_bound": 5, "max_bound": 60}}
    }"#;

    #[test]
    fn traced_cell_reconciles_and_validates() {
        let plan = plan_from(BASIC);
        let dir = std::env::temp_dir().join(format!("alc_trace_unit_{}", std::process::id()));
        let out = trace_cell(&plan, &plan.variants[0], 0, &dir).expect("cell runs");
        assert!(out.events > 0, "a live cell emits events");
        assert_eq!(out.span_begins, out.span_ends, "spans balance: {out:?}");
        assert!(out.ok(), "reconciliation holds: {out:?}");
        let n = validate_trace_file(&dir.join(&out.file_name)).expect("file validates");
        assert_eq!(n, out.events, "file holds every counted event");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_matches_untraced_stats() {
        let plan = plan_from(BASIC);
        let v = &plan.variants[0];
        let dir = std::env::temp_dir().join(format!("alc_trace_inert_{}", std::process::id()));
        let traced = trace_cell(&plan, v, 0, &dir).expect("cell runs");
        // An untraced run of the same cell must see identical stats:
        // tracing draws no randomness and schedules no events.
        let stats = v.simulator(0).run(v.cell.horizon_ms);
        assert_eq!(traced.stats, stats);
        std::fs::remove_dir_all(&dir).ok();
    }
}
