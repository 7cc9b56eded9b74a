//! The figure catalog: one entry per paper artifact, regenerated by
//! `scenario figure`.
//!
//! A figure's *runs* are a checked-in spec (`scenarios/<id>.json`)
//! executed by [`runner::run_plan`] like any other scenario, so every
//! engine figure can also be `scenario run`, traced, dashboarded and
//! `--set`-overridden. What stays Rust is the
//! *presentation*: a function over the plan and its records that lays
//! out the paper's table, draws the ASCII chart and states the
//! paper-vs-measured outcome — analyses (argmax, joins of several cells
//! into one row, trajectory statistics) that a column vocabulary has no
//! business growing for. The six studies that never touch the engine
//! (controllers driven against synthetic surfaces, closed-form estimator
//! weights, a Monte-Carlo interval check) are plain functions of the
//! scale.
//!
//! A paper result a figure shows is a *claim* ([`Report::claim`]): its
//! number, computed once, printed with a band that holds at both scales
//! (the golden test checks quick scale, `scenario figure` exits 1 on a
//! failure at either). A contradicted outcome is a note saying which way
//! the measurement went.

mod ablation;
mod dynamic;
mod stationary;

use std::path::Path;

use alc_core::controller::PaParams;
use alc_tpsim::engine::RunStats;

use crate::compile::RunPlan;
use crate::report::Report;
use crate::runner::{self, RunRecord};
use crate::{LoadedSpec, SpecError};
use Source::{ClosedForm, Spec};

/// Where a figure's numbers come from.
#[derive(Clone, Copy)]
pub enum Source {
    /// The runs of `<specs dir>/<id>.json`, laid out by the presentation
    /// function.
    Spec(fn(&RunPlan, &[RunRecord]) -> Report),
    /// No engine run: a function of the scale (`quick`) and the optional
    /// directory for its trajectory CSVs.
    ClosedForm(fn(bool, Option<&Path>) -> Report),
}

/// One catalog entry: `(id, one-line title, source)`.
pub type Figure = (&'static str, &'static str, Source);

/// Every figure and ablation `scenario figure` regenerates, in paper
/// order. Shared by the CLI and the golden test, so the two cannot drift
/// apart. Its claims have no README copy: README points at `scenario
/// figure --quick all`, which prints each with its band and verdict. (The ablations `abl-dither/alpha/displacement/rules/cc/victim/
/// hybrid` need no presentation of their own: `scenario run
/// scenarios/abl-*.json` prints their tables.)
#[rustfmt::skip]
pub const CATALOG: [Figure; 17] = [
    ("fig01", "load–throughput function with thrashing", Spec(stationary::fig01)),
    ("fig02", "performance surface P(n,t) under sinusoidal k", Spec(stationary::fig02)),
    ("fig03", "IS zig-zag trajectory (stationary)", Spec(dynamic::fig03)),
    ("fig04", "PA parabola fit vs true curve", ClosedForm(stationary::fig04)),
    ("fig06", "estimator memory shapes", ClosedForm(stationary::fig06)),
    ("fig07", "flat-hump pathology + fallbacks", ClosedForm(dynamic::fig07)),
    ("fig08", "abrupt shape change + covariance reset", ClosedForm(dynamic::fig08)),
    ("sec6", "overload indicator comparison", Spec(stationary::sec6)),
    ("fig12", "throughput with vs without control", Spec(stationary::fig12)),
    ("fig13", "IS trajectory under optimum jump", Spec(dynamic::fig13)),
    ("fig14", "PA trajectory under optimum jump", Spec(dynamic::fig14)),
    ("sinus", "sinusoidal workload tracking", Spec(dynamic::sinus)),
    ("abl-restart", "restart resampling ablation", Spec(ablation::abl_restart)),
    ("abl-is-failure", "IS growing-height failure (§5.1)", ClosedForm(ablation::abl_is_failure)),
    ("abl-hotspot", "Zipf hot-spot extension", Spec(ablation::abl_hotspot)),
    ("abl-interval", "§5 interval sizing + CI coverage", ClosedForm(ablation::abl_interval)),
    ("abl-open", "open arrivals: goodput/loss vs offered load", Spec(ablation::abl_open)),
];

/// Regenerates one figure: the table, chart and notes as a [`Report`],
/// plus its trajectory CSVs into `out` when a directory is given. Spec
/// figures read `<specs_dir>/<id>.json` and go through the ordinary
/// read → compile → [`runner::run_plan`] path.
pub fn run(
    (id, _, source): &Figure,
    specs_dir: &Path,
    quick: bool,
    out: Option<&Path>,
) -> Result<Report, SpecError> {
    match source {
        ClosedForm(study) => Ok(study(quick, out)),
        Spec(present) => {
            let plan = LoadedSpec::read(&specs_dir.join(format!("{id}.json")))?.compile(quick)?;
            let records = runner::run_plan(&plan);
            if let Some(dir) = out {
                runner::write_trajectories(&plan, &records, dir).map_err(|e| {
                    SpecError::new(format!("{id}: cannot write trajectories: {e}"))
                })?;
            }
            Ok(present(&plan, &records))
        }
    }
}

/// `(static MPL bound, stats)` of every cell of a sweep over
/// `control.initial_bound`, in grid order.
fn bound_sweep<'a>(plan: &RunPlan, records: &'a [RunRecord]) -> Vec<(u32, &'a RunStats)> {
    plan.variants
        .iter()
        .zip(records)
        .map(|(v, rec)| (v.cell.control.initial_bound, &rec.stats))
        .collect()
}

/// The point of highest throughput (the last one among equals).
fn peak<'a, X>(points: impl Iterator<Item = (X, &'a RunStats)>) -> (X, &'a RunStats) {
    points
        .max_by(|a, b| a.1.throughput_per_sec.total_cmp(&b.1.throughput_per_sec))
        .expect("non-empty sweep")
}

/// `part` as a percentage of `whole`.
fn pct(part: f64, whole: f64) -> f64 {
    100.0 * part / whole
}

/// Display labels of sweep axis `axis` of a figure's plan.
fn axis_labels(plan: &RunPlan, axis: usize) -> Vec<String> {
    let sweep = plan.sweep.as_ref().expect("the figure's spec is a sweep");
    let axis = &sweep.axes[axis];
    (0..axis.values.len()).map(|i| axis.label(i)).collect()
}

/// The paper-scale PA tuning (that of `scenarios/fig14.json`), for the
/// closed-form studies that drive a controller without the engine.
fn paper_pa() -> PaParams {
    PaParams {
        initial_bound: 50,
        min_bound: 1,
        max_bound: 800,
        alpha: 0.95,
        dither_amplitude: 8.0,
        max_step: 48.0,
        warmup_samples: 8,
        warmup_step: 8.0,
        ..PaParams::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The specs directory is the caller's: a spec figure pointed at a
    /// directory without its spec is an error that names the file, and a
    /// closed-form study does not look at the directory at all.
    #[test]
    fn run_reads_spec_figures_from_the_given_directory() {
        let nowhere = Path::new("no-such-specs-dir");
        let find = |want: &str| CATALOG.iter().find(|(id, _, _)| *id == want).expect("in catalog");
        let err = run(find("fig01"), nowhere, true, None).expect_err("no spec to read");
        assert!(err.to_string().contains("fig01.json"), "{err}");
        let report = run(find("fig06"), nowhere, true, None).expect("closed form");
        assert_eq!(report.id, "fig06");
    }

    /// A claim fails when its measurement leaves the band, and the report
    /// says which: fig01 swept only up to a bound below the knee peaks at
    /// its last bound, so nothing thrashes.
    #[test]
    fn a_sweep_that_stops_before_the_knee_fails_the_thrashing_claim() {
        let scenarios = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let spec = std::fs::read_to_string(scenarios.join("fig01.json")).expect("fig01 spec");
        let quick_grid = r#""sweep.axes.0.values": [2, 5, 10, 20, 40]"#;
        assert!(spec.contains(quick_grid), "fig01's quick grid moved");
        let dir = std::env::temp_dir().join("alc_scenario_figures_before_the_knee");
        std::fs::create_dir_all(&dir).expect("temp specs dir");
        let short = spec.replace(quick_grid, r#""sweep.axes.0.values": [2, 5, 10]"#);
        std::fs::write(dir.join("fig01.json"), short).expect("write spec");

        let fig01 = CATALOG.iter().find(|(id, _, _)| *id == "fig01").expect("in catalog");
        let report = run(fig01, &dir, true, None).expect("runs");
        let failed: Vec<&str> = report.failed_claims().collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("thrashing"), "{}", failed[0]);
        assert!(report.render().contains("[claim FAILS] thrashing"));
    }

    /// The catalog and the specs it names cannot drift apart: ids are
    /// unique and in paper order, each spec figure's `<id>.json` exists,
    /// compiles at both scales and names itself `<id>` (the CSV stem),
    /// and the specs written for the catalog carry the figure's report
    /// title as their description (the presentations print it).
    #[test]
    fn catalog_matches_the_checked_in_specs() {
        let ids: Vec<&str> = CATALOG.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(
            ids,
            [
                "fig01", "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "sec6", "fig12",
                "fig13", "fig14", "sinus", "abl-restart", "abl-is-failure", "abl-hotspot",
                "abl-interval", "abl-open",
            ]
        );
        let titles = [
            ("fig01", "Load–throughput function with thrashing (underload / saturation / overload)"),
            ("fig02", "Dynamic behaviour: the performance surface P(n, t) under sinusoidal k(t)"),
            ("fig03", "Trajectory of the Method of Incremental Steps (zig-zag ridge tracking)"),
            ("sec6", "Overload-indicator comparison (§6): distinctness of each indicator's extremum"),
            ("fig12", "System throughput with and without control in the stationary case"),
            ("abl-restart", "Restart policy: fresh access set vs identical retry under high contention"),
            ("abl-hotspot", "Zipf access skew: optimum shift and controller tracking (hot-spot extension)"),
            ("abl-open", "Open arrivals (extension): goodput and loss vs offered load, with and without control"),
        ];
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        for (id, _, source) in &CATALOG {
            if matches!(source, ClosedForm(_)) {
                continue;
            }
            let loaded = LoadedSpec::read(&dir.join(format!("{id}.json")))
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            for quick in [false, true] {
                let plan = loaded
                    .compile(quick)
                    .unwrap_or_else(|e| panic!("{id} (quick={quick}): {e}"));
                assert_eq!(plan.name, *id, "the spec's name is the figure's CSV stem");
                if let Some((_, title)) = titles.iter().find(|(t, _)| t == id) {
                    assert_eq!(plan.description, *title, "{id}");
                }
            }
        }
    }
}
