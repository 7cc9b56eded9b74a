//! The scenario runner: executes a compiled [`RunPlan`] and emits the
//! existing report/CSV artifacts.
//!
//! All `(variant, replication)` cells are independent simulator runs, so
//! they fan out over a private scoped pool (`fan_out`) of
//! `rayon::current_num_threads()` workers, the calling thread being one,
//! and are collected in input order — parallel execution is
//! byte-identical to serial (each run is fully determined by its
//! recorded seed). Trajectory CSVs use the same column set and
//! naming convention as the bespoke figure generators
//! (`<name>[_<variant>]_trajectory.csv`, columns `bound, observed_mpl,
//! throughput, optimum, k`), which is what lets the golden test pin the
//! ported scenarios byte-for-byte against the pre-port outputs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_des::series::write_aligned_csv;
use alc_runtime::{write_gate_log, GateLogHeader};
use alc_tpsim::engine::{RunStats, Trajectories};

use crate::compile::{RunPlan, VariantPlan};
use crate::report::Report;
use crate::spec::{ColumnSpec, SweepSpec};

/// The outcome of one `(variant, replication)` cell.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Variant label ("" for the implicit variant).
    pub label: String,
    /// Replication index.
    pub replication: u32,
    /// Seed the run used.
    pub seed: u64,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Client-pool counters (when the plan has a `clients` section).
    pub clients: Option<alc_tpsim::ClientStats>,
    /// Recorded trajectories (when the plan asked for them).
    pub trajectories: Option<Trajectories>,
}

/// Where and how to capture gate logs while running a plan.
#[derive(Debug, Clone)]
pub struct GateLogRequest {
    /// Directory receiving one `<stem>_gatelog.jsonl` per cell.
    pub dir: PathBuf,
    /// Recorded in each log's header: whether the plan was compiled with
    /// the spec's quick (CI-scale) overrides.
    pub quick: bool,
}

/// The name of one `(variant, replication)` cell's `kind` of file:
/// `<name>[_<variant>][_rep<r>]_<kind>`, `_rep<r>` only when the variant
/// replicates. Every per-cell file is named here: `trajectory.csv`,
/// `switches.csv`, `clients.csv`, `gatelog.jsonl` and `trace.json`.
pub fn cell_file_name(plan: &RunPlan, v: &VariantPlan, rep: u32, kind: &str) -> String {
    let variant = if v.label.is_empty() { String::new() } else { format!("_{}", v.label) };
    let rep = if v.seeds.len() > 1 { format!("_rep{rep}") } else { String::new() };
    format!("{}{variant}{rep}_{kind}", plan.name)
}

/// A [`GateLogSink`] buffering events behind a shared handle, so the
/// runner can keep them after the simulator consumes the boxed sink.
struct CaptureSink(Arc<Mutex<Vec<GateEvent>>>);

impl GateLogSink for CaptureSink {
    fn record(&mut self, event: &GateEvent) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(*event);
    }
}

/// Executes one cell of a plan, optionally capturing its gate log.
fn run_one(
    plan: &RunPlan,
    v: &VariantPlan,
    rep: usize,
    gate_log: Option<&GateLogRequest>,
) -> std::io::Result<RunRecord> {
    let seed = v.seeds[rep];
    let mut sim = v.simulator(rep);
    let captured = gate_log.map(|req| {
        let events = Arc::new(Mutex::new(Vec::new()));
        sim.set_gate_log(Box::new(CaptureSink(Arc::clone(&events))));
        (req, events)
    });
    let stats = sim.run(v.cell.horizon_ms);
    if let Some((req, events)) = captured {
        let header = GateLogHeader {
            scenario: plan.name.clone(),
            variant: v.label.clone(),
            replication: rep as u32,
            seed,
            quick: req.quick,
        };
        let events = std::mem::take(&mut *events.lock().unwrap_or_else(PoisonError::into_inner));
        let path = req.dir.join(cell_file_name(plan, v, rep as u32, "gatelog.jsonl"));
        let f = std::fs::File::create(path)?;
        write_gate_log(std::io::BufWriter::new(f), &header, &events)?;
    }
    Ok(RunRecord {
        label: v.label.clone(),
        replication: rep as u32,
        seed,
        stats,
        clients: sim.client_stats(),
        trajectories: v.keep_trajectories.then(|| sim.trajectories().clone()),
    })
}

/// Runs every `(variant, replication)` cell of the plan in parallel and
/// returns the records in deterministic (variant-major) order.
pub fn run_plan(plan: &RunPlan) -> Vec<RunRecord> {
    // Without a capture request run_one performs no I/O.
    run_plan_logged(plan, None).expect("gate-log capture disabled; no I/O to fail")
}

/// [`run_plan`], optionally capturing one gate log per cell into
/// `gate_log.dir` (created if absent). Each log carries a header naming
/// its `(scenario, variant, replication, seed, quick)` provenance so
/// `scenario replay` can rebuild the matching controller.
pub fn run_plan_logged(
    plan: &RunPlan,
    gate_log: Option<&GateLogRequest>,
) -> std::io::Result<Vec<RunRecord>> {
    if let Some(req) = gate_log {
        std::fs::create_dir_all(&req.dir)?;
    }
    let jobs: Vec<(usize, usize)> = plan
        .variants
        .iter()
        .enumerate()
        .flat_map(|(vi, v)| (0..v.seeds.len()).map(move |r| (vi, r)))
        .collect();
    fan_out(rayon::current_num_threads(), &jobs, |&(vi, r)| {
        run_one(plan, &plan.variants[vi], r, gate_log)
    })
    .into_iter()
    .collect()
}

/// Runs `f` over `jobs` on `threads` workers in total and returns the
/// results in job order.
///
/// The calling thread is one of the workers, so `threads − 1` scoped
/// threads are spawned (none at one thread or one job): a thread that
/// would only wait in `join` costs a stack and a malloc arena and does
/// no work. Workers claim jobs one at a time from a shared counter, so a
/// slow job occupies one worker while the others drain the list, and
/// each result is filed under its job's index, so the output is the
/// sequential one whichever worker produced it. A panic in `f` reaches
/// the caller with the job's own message, on whichever worker it ran.
fn fan_out<T: Sync, R: Send>(threads: usize, jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(jobs.len());
    if threads <= 1 {
        return jobs.iter().map(f).collect();
    }
    // Relaxed: the counter only hands out indices; the jobs were written
    // before the workers started and each result travels back by `join`.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            done.push((i, f(job)));
        }
    };
    let mut done = thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        let mut done = worker();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Writes the trajectory CSVs of `records` into `dir` (same format as
/// the figure generators) and returns the file names written.
pub fn write_trajectories(
    plan: &RunPlan,
    records: &[RunRecord],
    dir: &Path,
) -> std::io::Result<Vec<String>> {
    let mut written = Vec::new();
    std::fs::create_dir_all(dir)?;
    for rec in records {
        let Some(traj) = &rec.trajectories else {
            continue;
        };
        // Records may retain trajectories solely for derived columns;
        // only variants that asked for trajectory output get files.
        let variant = plan.variants.iter().find(|v| v.label == rec.label);
        let Some(v) = variant.filter(|v| v.cell.trajectories) else {
            continue;
        };
        let name = cell_file_name(plan, v, rec.replication, "trajectory.csv");
        let f = std::fs::File::create(dir.join(&name))?;
        write_aligned_csv(
            std::io::BufWriter::new(f),
            &[
                &traj.bound,
                &traj.observed_mpl,
                &traj.throughput,
                &traj.optimum,
                &traj.k,
            ],
        )?;
        written.push(name);
        // The switch-event trace rides along for runs that actually
        // switched protocols (scheduled phases or adaptive selection);
        // single-protocol runs keep their exact pre-meta file set.
        if !traj.switches.is_empty() {
            let name = cell_file_name(plan, v, rec.replication, "switches.csv");
            let mut out = String::from("decided_at_ms,completed_at_ms,from,to\n");
            for e in &traj.switches {
                use std::fmt::Write as _;
                let _ = writeln!(
                    out,
                    "{},{},{},{}",
                    e.decided_at_ms,
                    e.completed_at_ms,
                    crate::spec::cc_spec_name(e.from),
                    crate::spec::cc_spec_name(e.to)
                );
            }
            std::fs::write(dir.join(&name), out)?;
            written.push(name);
        }
        // Client runs ride a `_clients.csv` along: per-interval attempt /
        // retry / abandonment deltas. Clientless runs keep their exact
        // pre-client file set.
        if !traj.attempts.is_empty() {
            let name = cell_file_name(plan, v, rec.replication, "clients.csv");
            let f = std::fs::File::create(dir.join(&name))?;
            write_aligned_csv(
                std::io::BufWriter::new(f),
                &[&traj.attempts, &traj.retries, &traj.abandons],
            )?;
            written.push(name);
        }
    }
    Ok(written)
}

/// Formats one report cell for a record.
fn format_cell(col: &ColumnSpec, v: &VariantPlan, rec: &RunRecord) -> String {
    match col {
        ColumnSpec::Stat(c) => c.format(&rec.stats),
        ColumnSpec::Client(c) => c.format(rec.clients.as_ref(), rec.stats.duration_ms),
        ColumnSpec::Derived(d) => {
            let traj = rec
                .trajectories
                .as_ref()
                .expect("derived columns force trajectory retention at compile time");
            d.format(traj, v.cell.horizon_ms, v.cell.cc.initial())
        }
        ColumnSpec::Input(name) => v
            .inputs
            .iter()
            .find(|(col, _)| col == name)
            .map(|(_, val)| val.clone())
            .unwrap_or_else(|| "-".to_string()),
        ColumnSpec::Literal { value, .. } => value.clone(),
    }
}

/// Builds the report table from a finished run: one row per record, or
/// the grid/pivot layout for sweep plans.
pub fn build_report(plan: &RunPlan, records: &[RunRecord]) -> Report {
    if let Some(sweep) = &plan.sweep {
        return build_sweep_report(plan, sweep, records);
    }
    let mut headers: Vec<String> = vec![plan.label_header.clone()];
    headers.extend(plan.columns.iter().map(|c| c.header()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(&plan.name, &plan.description, &header_refs);
    let multi_rep = plan.variants.iter().any(|v| v.seeds.len() > 1);
    for rec in records {
        let variant = plan
            .variants
            .iter()
            .find(|v| v.label == rec.label)
            .expect("record label must come from the plan");
        let mut label = if variant.display_label.is_empty() {
            "run".to_string()
        } else {
            variant.display_label.clone()
        };
        if multi_rep {
            label.push_str(&format!("#{}", rec.replication));
        }
        let mut row = vec![label];
        row.extend(plan.columns.iter().map(|c| format_cell(c, variant, rec)));
        report.push_row(row);
    }
    report
}

/// Sweep layouts. Without a pivot: one row per record, leading columns
/// are the axis labels (the long-format load–throughput curve CSV). With
/// a pivot: rows iterate the non-pivot axes, the last axis becomes one
/// column per value showing the pivot stat.
fn build_sweep_report(plan: &RunPlan, sweep: &SweepSpec, records: &[RunRecord]) -> Report {
    let mut headers: Vec<String> = Vec::new();
    let n_axes = sweep.axes.len();
    match &sweep.pivot {
        None => {
            headers.extend(sweep.axes.iter().map(|a| a.header.clone()));
            headers.extend(plan.columns.iter().map(|c| c.header()));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut report = Report::new(&plan.name, &plan.description, &header_refs);
            let multi_rep = plan.variants.iter().any(|v| v.seeds.len() > 1);
            // Records are (cell, replication) in plan order; recover the
            // cell index from the variant list.
            let mut rec_iter = records.iter();
            for (cell, variant) in plan.variants.iter().enumerate() {
                let coords = sweep.coords(cell);
                for _ in 0..variant.seeds.len() {
                    let rec = rec_iter.next().expect("one record per (cell, rep)");
                    let mut row: Vec<String> =
                        sweep.axes.iter().zip(&coords).map(|(a, &c)| a.label(c)).collect();
                    if multi_rep {
                        row[0].push_str(&format!("#{}", rec.replication));
                    }
                    row.extend(plan.columns.iter().map(|c| format_cell(c, variant, rec)));
                    report.push_row(row);
                }
            }
            report
        }
        Some(pivot) => {
            // Pivoted: replications are forced to 1 at parse time, so
            // records index exactly as cells.
            headers.extend(sweep.axes[..n_axes - 1].iter().map(|a| a.header.clone()));
            let pivoted = &sweep.axes[n_axes - 1];
            let n_cols = pivoted.values.len();
            headers.extend((0..n_cols).map(|c| format!("{}{}", pivot.prefix, pivoted.label(c))));
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut report = Report::new(&plan.name, &plan.description, &header_refs);
            let n_rows = plan.variants.len() / n_cols.max(1);
            for r in 0..n_rows {
                let coords = sweep.coords(r * n_cols);
                let mut row: Vec<String> = sweep.axes[..n_axes - 1]
                    .iter()
                    .zip(&coords)
                    .map(|(a, &c)| a.label(c))
                    .collect();
                for c in 0..n_cols {
                    row.push(pivot.stat.format(&records[r * n_cols + c].stats));
                }
                report.push_row(row);
            }
            report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_value;
    use std::path::PathBuf;

    fn quick_plan(json: &str) -> RunPlan {
        let v: serde::Value = serde_json::from_str(json).unwrap();
        compile_value(&v, &PathBuf::from("."), false).unwrap()
    }

    #[test]
    fn run_plan_is_deterministic_and_ordered() {
        let plan = quick_plan(
            r#"{
            "name": "rdet", "horizon_ms": 6000.0, "replications": 2,
            "system": {"terminals": 20, "cpus": 4, "db_size": 300,
                       "think": {"exponential": 200}},
            "control": {"sample_interval_ms": 500.0, "warmup_ms": 1000.0},
            "controller": {"is": {"initial_bound": 5, "max_bound": 40}},
            "variants": [
                {"name": "cert", "set": {"cc": "certification"}},
                {"name": "2pl", "set": {"cc": "2pl"}}
            ]
        }"#,
        );
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.len(), 4);
        let order: Vec<(String, u32)> = a
            .iter()
            .map(|r| (r.label.clone(), r.replication))
            .collect();
        assert_eq!(
            order,
            vec![
                ("cert".to_string(), 0),
                ("cert".to_string(), 1),
                ("2pl".to_string(), 0),
                ("2pl".to_string(), 1)
            ]
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats, "{}#{}", x.label, x.replication);
        }
        // Replications use distinct seeds and realize differently.
        assert_ne!(a[0].seed, a[1].seed);
        assert_ne!(a[0].stats, a[1].stats);
        assert!(a.iter().all(|r| r.stats.commits > 0));
    }

    #[test]
    fn fan_out_preserves_order() {
        let xs: Vec<u64> = (0..1000u64).collect();
        let serial: Vec<u64> = xs.iter().map(|&x| x * x).collect();
        assert_eq!(fan_out(4, &xs, |&x| x * x), serial);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(fan_out(4, &[] as &[u32], |&x| x).is_empty());
        assert_eq!(fan_out(4, &[7u32], |&x| x + 1), vec![8]);
    }

    /// Each job waits until the other has started, so this completes
    /// only if two workers run at once, and the caller must be one of
    /// them.
    #[test]
    fn two_workers_run_at_once_and_the_caller_is_one() {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ids = fan_out(2, &[0u32, 1], |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&caller), "the calling thread ran no job");
    }

    /// At one thread every job runs inline on the caller.
    #[test]
    fn one_thread_runs_inline() {
        let caller = std::thread::current().id();
        let ids = fan_out(1, &[0u32; 8], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    /// Jobs are claimed one at a time: job 0 does not return until jobs
    /// 1..8 have all run, which needs the other worker to take every one
    /// of them (a worker that owned 0..4 as a chunk would wait for its
    /// own jobs here, and time out).
    #[test]
    fn slow_item_does_not_hold_back_its_neighbours() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let out = fan_out(2, &(0..8u32).collect::<Vec<_>>(), |&i| {
            if i == 0 {
                let rx = rx.lock().unwrap();
                for _ in 1..8 {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("jobs behind the slow one never ran");
                }
            } else {
                tx.send(i).unwrap();
            }
            i * 2
        });
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// The caller sees the failing job's own panic message, not a
    /// generic "a scoped thread panicked".
    #[test]
    #[should_panic(expected = "cell 7 exploded")]
    fn worker_panic_keeps_its_message() {
        fan_out(2, &(0..16u32).collect::<Vec<_>>(), |&i| {
            assert!(i != 7, "cell {i} exploded");
            i
        });
    }

    /// The same holds when the failing job ran on the calling thread.
    #[test]
    #[should_panic(expected = "the caller's job exploded")]
    fn caller_panic_keeps_its_message() {
        let caller = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        fan_out(2, &[0u32, 1], |_| {
            barrier.wait();
            assert!(
                std::thread::current().id() != caller,
                "the caller's job exploded"
            );
        });
    }

    #[test]
    fn report_and_trajectories_are_emitted() {
        let plan = quick_plan(
            r#"{
            "name": "remit", "horizon_ms": 5000.0,
            "system": {"terminals": 15, "cpus": 4, "db_size": 300,
                       "think": {"exponential": 200}},
            "control": {"sample_interval_ms": 500.0, "warmup_ms": 0.0},
            "controller": {"is": {"initial_bound": 5, "max_bound": 40}},
            "record_optimum": true,
            "trajectories": true,
            "columns": ["throughput_per_s", "commits"]
        }"#,
        );
        let records = run_plan(&plan);
        let report = build_report(&plan, &records);
        assert_eq!(report.headers, vec!["variant", "throughput_per_s", "commits"]);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0][0], "run");

        let dir = std::env::temp_dir().join("alc_scenario_runner_test");
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_trajectories(&plan, &records, &dir).unwrap();
        assert_eq!(written, vec!["remit_trajectory.csv".to_string()]);
        let text = std::fs::read_to_string(dir.join("remit_trajectory.csv")).unwrap();
        assert!(text.starts_with("t_ms,bound,observed_mpl,throughput,optimum,k\n"));
        assert!(text.lines().count() > 5);
    }
}
