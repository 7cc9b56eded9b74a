//! What the result tests share: a checked-in spec under `scenarios/`,
//! compiled at quick scale and run through the ordinary `run_plan` path.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use adaptive_load_control::scenario::compile::RunPlan;
use adaptive_load_control::scenario::runner::{self, RunRecord};
use adaptive_load_control::scenario::LoadedSpec;
use adaptive_load_control::tpsim::engine::RunStats;

/// `scenarios/<name>.json` compiled at quick scale.
pub fn quick_plan(name: &str) -> RunPlan {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"));
    LoadedSpec::read(&path)
        .and_then(|spec| spec.compile(true))
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A spec's quick run: the plan and one record per cell, in plan order.
type QuickRun = (RunPlan, Vec<RunRecord>);

/// `scenarios/<name>.json` run at quick scale, once per test binary: the
/// tests reading the same spec share its run (the runs are deterministic,
/// so a second one would only repeat the first).
pub fn run_quick(name: &str) -> &'static QuickRun {
    static RUNS: OnceLock<Mutex<HashMap<String, &'static OnceLock<QuickRun>>>> = OnceLock::new();
    // The map lock is held only to find the spec's cell, so different
    // specs run concurrently and a second reader of one spec waits.
    let cell: &'static OnceLock<QuickRun> = RUNS
        .get_or_init(Default::default)
        .lock()
        .expect("run cache lock")
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let plan = quick_plan(name);
        let records = runner::run_plan(&plan);
        (plan, records)
    })
}

/// The statistics of the cell labelled `label` (a sweep cell's label
/// joins its axis labels with `_`).
pub fn stats<'a>(records: &'a [RunRecord], label: &str) -> &'a RunStats {
    &records
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no cell labelled `{label}`"))
        .stats
}
