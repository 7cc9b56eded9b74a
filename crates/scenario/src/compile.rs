//! The spec → run-plan compiler.
//!
//! Compilation is *deterministic*: the same spec tree (plus the same
//! `--quick`/`--set` inputs and trace files) always lowers to the same
//! [`RunPlan`], and the plan fully determines every simulator run (all
//! randomness derives from the per-replication seeds recorded in it).
//!
//! Every run group is a cell: a variant, or one point of a sweep grid.
//! A cell compiles by landing its override layers on the spec's JSON
//! tree — a variant's `set` (then the spec's and the variant's `quick`
//! under `--quick`), or one value per sweep axis — and reading the
//! result, so a cell can change *anything* a spec can say, from one
//! control flag to the whole controller object. That read is the only
//! check a cell gets, its override paths and its rules alike: the reader
//! returns the engine's own configs, checked, as a [`CellSpec`], and
//! when a cell does not read, `validate::land` names every override to
//! blame. The plan keeps that [`CellSpec`] as read; compiling adds only
//! its replication seeds, each seed's fault timeline (the one rule left
//! here: the faults must not kill more CPUs than are installed, which a
//! sampled outage decides per seed) and its labels.

use std::path::Path;

use alc_tpsim::config::SystemConfig;
use alc_tpsim::engine::Simulator;
use serde::Value;

use crate::spec::{
    CcSpec, CellSpec, ColumnSpec, FaultSpec, ScenarioSpec, SweepSpec, VariantSpec,
};
use crate::validate::{dead_paths, land, Layer};
use crate::SpecError;

/// A fully lowered scenario: everything the runner needs, nothing left
/// to resolve.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// Scenario id (CSV stem).
    pub name: String,
    /// Report title.
    pub description: String,
    /// Label column header.
    pub label_header: String,
    /// Columns of the report.
    pub columns: Vec<ColumnSpec>,
    /// The grid, as read after the spec's `quick` overrides, when the
    /// plan came from a `sweep` spec: the variants are its cells in
    /// row-major order ([`SweepSpec::coords`]).
    pub sweep: Option<SweepSpec>,
    /// One compiled variant per run group.
    pub variants: Vec<VariantPlan>,
}

/// One compiled run group: the cell as read, plus its replication seeds,
/// fault timelines and labels.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantPlan {
    /// Variant label ("" for the implicit single variant) — names
    /// trajectory files and identifies the run group.
    pub label: String,
    /// Label shown in the report table (differs from `label` when the
    /// spec routes it through `label_from`; labels may repeat, names
    /// may not).
    pub display_label: String,
    /// Literal input cells of this variant, for `{"input": …}` columns.
    pub inputs: Vec<(String, String)>,
    /// The cell, its overrides landed, exactly as the reader returned it.
    pub cell: CellSpec,
    /// Master seed per replication (replication 0 uses the spec seed).
    pub seeds: Vec<u64>,
    /// Each replication's scheduled CPU-capacity deltas `(t_ms, delta)`
    /// lowered from the cell's fault windows, ascending; indexed like
    /// `seeds`. A sampled `repair` distribution differs per seed; fixed
    /// windows lower identically in every replication.
    pub fault_timelines: Vec<Vec<(f64, i32)>>,
    /// Retain trajectories in the run records (set when the plan's
    /// columns derive from them, even without trajectory CSV output).
    pub keep_trajectories: bool,
}

impl VariantPlan {
    /// The simulator of replication `rep`, fully assembled and not yet
    /// run — the one place a plan becomes an engine, so runs, traces
    /// and tests cannot disagree on a setter. Callers add only their
    /// observers (gate log, trace sink).
    pub fn simulator(&self, rep: usize) -> Simulator {
        let cell = &self.cell;
        let sys = SystemConfig {
            seed: self.seeds[rep],
            ..cell.system
        };
        let controller = cell.controller.build(&sys, &cell.workload);
        let mut sim = Simulator::new(
            sys,
            cell.workload.clone(),
            cell.cc.initial(),
            cell.control,
            controller,
        );
        sim.set_record_optimum(cell.record_optimum);
        match &cell.cc {
            CcSpec::Fixed(_) => {}
            CcSpec::Phases(phases) => sim.set_cc_switches(&phases[1..]),
            CcSpec::Adaptive(adaptive) => {
                let (candidates, policy) = adaptive.build();
                sim.set_adaptive_cc(candidates, policy);
            }
        }
        let faults = &self.fault_timelines[rep];
        if !faults.is_empty() {
            sim.set_faults(faults);
        }
        if let Some(clients) = &cell.clients {
            sim.set_clients(clients.clone());
        }
        sim
    }
}

/// Derives the replication-`r` seed from the spec seed (replication 0 is
/// the spec seed itself, so single-replication scenarios reproduce the
/// bespoke figure runs exactly).
fn replication_seed(seed: u64, r: u32) -> u64 {
    seed.wrapping_add(u64::from(r).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Compiles a spec tree. `base_dir` resolves trace paths; `quick`
/// applies the spec's CI-scale overrides.
pub fn compile_value(base: &Value, base_dir: &Path, quick: bool) -> Result<RunPlan, SpecError> {
    let mut spec = ScenarioSpec::from_value(base, base_dir)?;
    // A sweep lands the spec's `quick` on the base first, so it may
    // rescale the grid itself; its cells then read as plain specs, the
    // `sweep` section stripped.
    let mut swept = None;
    if spec.sweep.is_some() {
        let mut tree = if quick {
            let (tree, landed) =
                land(base, base_dir, &[layer("`quick`".to_string(), &spec.quick)])
                    .map_err(dead_paths)?;
            spec = landed;
            tree
        } else {
            base.clone()
        };
        if let Value::Map(entries) = &mut tree {
            entries.retain(|(k, _)| k != "sweep");
        }
        swept = Some(tree);
    }
    let tree = swept.as_ref().unwrap_or(base);

    // Each cell's label and override layers: one value per axis for a
    // grid point (row-major, last axis fastest), a variant's `set` and
    // `quick` layers otherwise.
    let implicit = [VariantSpec::default()];
    let cells: Vec<(String, Vec<Layer<'_>>)> = match &spec.sweep {
        Some(sweep) => (0..sweep.axes.iter().map(|a| a.values.len()).product())
            .map(|idx| {
                let points: Vec<_> = sweep.axes.iter().zip(sweep.coords(idx)).collect();
                let label: Vec<String> = points.iter().map(|(axis, c)| axis.label(*c)).collect();
                let layers = points
                    .iter()
                    .enumerate()
                    .map(|(i, (axis, c))| {
                        let origin = format!("sweep axis {i} (`{}`)", axis.header);
                        (origin, vec![(axis.path.as_str(), &axis.values[*c])])
                    })
                    .collect();
                (label.join("_"), layers)
            })
            .collect(),
        None => {
            let variants = if spec.variants.is_empty() { &implicit[..] } else { &spec.variants };
            variants
                .iter()
                .map(|vs| {
                    let mut layers = vec![layer(format!("variant `{}` `set`", vs.name), &vs.set)];
                    if quick {
                        layers.push(layer("`quick`".to_string(), &spec.quick));
                        layers.push(layer(format!("variant `{}` `quick`", vs.name), &vs.quick));
                    }
                    (vs.name.clone(), layers)
                })
                .collect()
        }
    };

    let derived = spec.columns.iter().any(ColumnSpec::needs_trajectories);
    let mut variants = Vec::with_capacity(cells.len());
    let mut dead = Vec::new();
    for (label, layers) in cells {
        match land(tree, base_dir, &layers) {
            Ok((_, landed)) => variants.push(build_variant(landed, label, derived)?),
            Err(lines) => dead.extend(lines),
        }
    }
    if !dead.is_empty() {
        return Err(dead_paths(dead));
    }

    Ok(RunPlan {
        label_header: match &spec.sweep {
            Some(sweep) => sweep.axes[0].header.clone(),
            None => spec.label_header,
        },
        name: spec.name,
        description: spec.description,
        columns: spec.columns,
        sweep: spec.sweep,
        variants,
    })
}

/// One override layer named by its origin, borrowing its pairs.
fn layer(origin: String, overrides: &[(String, Value)]) -> Layer<'_> {
    (origin, overrides.iter().map(|(path, v)| (path.as_str(), v)).collect())
}

/// Lowers the fault specs for one replication into an ascending
/// CPU-capacity delta timeline, rejecting schedules that would kill more
/// CPUs than are installed. Each outage is sampled per fault from the
/// replication seed's dedicated `fault_repair` RNG substream (spec
/// order; a constant draws nothing), so the schedule is fully determined
/// by the recorded seed and no other stream shifts.
/// The sort is stable, so a zero-length outage restores immediately
/// after its kill.
fn lower_faults_for_seed(
    faults: &[FaultSpec],
    sys: &SystemConfig,
    seed: u64,
) -> Result<Vec<(f64, i32)>, SpecError> {
    use alc_des::dist::Sample as _;
    let mut rng = alc_des::rng::SeedFactory::new(seed).stream("fault_repair");
    let mut deltas: Vec<(f64, i32)> = Vec::with_capacity(faults.len() * 2);
    for f in faults {
        // A pathological draw below zero clamps to an instant repair
        // (kill and restore at the same time, kill first).
        let duration_ms = f.outage.sample(&mut rng).max(0.0);
        let down = i32::try_from(f.cpus_down)
            .map_err(|_| SpecError::new("fault `cpus_down` too large"))?;
        deltas.push((f.at_ms, -down));
        // A restore at +∞ never happens: those CPUs never come back.
        let restore_ms = f.at_ms + duration_ms;
        if restore_ms.is_finite() {
            deltas.push((restore_ms, down));
        }
    }
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut level = i64::from(sys.cpus);
    for &(_, d) in &deltas {
        level += i64::from(d);
        if level < 0 {
            return Err(SpecError::new(format!(
                "faults kill more CPUs than installed ({} configured)",
                sys.cpus
            )));
        }
    }
    Ok(deltas)
}

/// The plan of one landed cell: the cell as read, its seeds, each seed's
/// fault timeline and its labels. `derived` says the plan's columns read
/// trajectories.
fn build_variant(
    landed: ScenarioSpec,
    label: String,
    derived: bool,
) -> Result<VariantPlan, SpecError> {
    let cell = landed.cell;
    let seeds: Vec<u64> = (0..cell.replications)
        .map(|r| replication_seed(cell.system.seed, r))
        .collect();
    let fault_timelines = seeds
        .iter()
        .map(|&s| lower_faults_for_seed(&cell.faults, &cell.system, s))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = landed
        .inputs
        .into_iter()
        .find(|(name, _)| *name == label)
        .map(|(_, cells)| cells)
        .unwrap_or_default();
    let display_label = landed
        .label_from
        .and_then(|lf| inputs.iter().find(|(col, _)| *col == lf).map(|(_, v)| v.clone()))
        .unwrap_or_else(|| label.clone());
    Ok(VariantPlan {
        keep_trajectories: cell.trajectories || derived,
        label,
        display_label,
        inputs,
        cell,
        seeds,
        fault_timelines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ControllerSpec;
    use crate::value_util::set_path;
    use alc_tpsim::config::CcKind;
    use std::path::PathBuf;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn compile_lowers_system_and_control() {
        let v = parse(
            r#"{
            "name": "c1", "horizon_ms": 5000.0, "seed": 7,
            "system": {"terminals": 30, "think": {"exponential": 250}},
            "control": {"sample_interval_ms": 500.0, "displacement": true},
            "workload": {"k": {"step": {"at": 2500.0, "before": 4, "after": 8}}},
            "controller": {"is": {"initial_bound": 5, "max_bound": 60}}
        }"#,
        );
        let plan = compile_value(&v, &PathBuf::from("."), false).unwrap();
        assert_eq!(plan.variants.len(), 1);
        let vp = &plan.variants[0].cell;
        assert_eq!(vp.system.terminals, 30);
        assert_eq!(vp.system.seed, 7);
        assert_eq!(vp.system.think, alc_des::dist::Dist::exponential(250.0));
        assert!(vp.control.displacement);
        assert_eq!(vp.workload.at(0.0).k, 4);
        assert_eq!(vp.workload.at(3000.0).k, 8);
        // Untouched fields keep SystemConfig defaults.
        assert_eq!(vp.system.cpus, SystemConfig::default().cpus);
    }

    #[test]
    fn configs_the_engine_would_panic_on_are_spec_errors() {
        // Each of these passed `scenario validate` and then panicked
        // `scenario run` (a station, the RNG, the clock, a sampler, the
        // calendar; then a controller constructor, the
        // estimator inside one, the analytic optimum scan, the sample
        // tick, the client pool, an Erlang of no stages), or ran as
        // another value (a workload field outside its domain).
        for (path, value, names) in [
            ("system.cpus", "0", "system.cpus"),
            ("system.db_size", "0", "system.db_size"),
            ("system.db_size", "3", "system.db_size"),
            ("workload.k", "1000000", "workload.k"),
            ("system.think", "-5", "system.think"),
            ("system.think", r#"{"erlang": {"stages": 0, "mean": 5}}"#, "system.think"),
            ("system.cpu_phase", "-1", "system.cpu_phase"),
            ("controller", r#"{"fixed": {"bound": 0}}"#, "controller.fixed.bound"),
            (
                "controller",
                r#"{"is": {"min_bound": 10, "max_bound": 5}}"#,
                "controller.is.max_bound",
            ),
            ("controller", r#"{"is": {"beta": -1}}"#, "controller.is.beta"),
            ("controller", r#"{"is": {"min_step": 0}}"#, "controller.is.min_step"),
            ("controller", r#"{"is": {"smoothing": 7}}"#, "controller.is.smoothing"),
            ("controller", r#"{"pa": {"initial_bound": 0}}"#, "controller.pa.initial_bound"),
            ("controller", r#"{"pa": {"alpha": 7}}"#, "controller.pa.alpha"),
            ("controller", r#"{"pa": {"max_step": 0}}"#, "controller.pa.max_step"),
            (
                "controller",
                r#"{"pa": {"dither_amplitude": -1}}"#,
                "controller.pa.dither_amplitude",
            ),
            ("controller", r#"{"iyer": {"target": 0}}"#, "controller.iyer.target"),
            ("controller", r#"{"tay": {"k": 0, "max_bound": 10}}"#, "controller.tay.k"),
            (
                "controller",
                r#"{"tay": {"k": 4, "min_bound": 9, "max_bound": 3}}"#,
                "controller.tay.max_bound",
            ),
            (
                "controller",
                r#"{"hybrid": {"is": {"max_bound": 50}, "pa": {"max_bound": 50, "alpha": 0}}}"#,
                "controller.hybrid.pa.alpha",
            ),
            (
                "controller",
                r#"{"self_tuning_pa": {"pa": {"alpha": 2}}}"#,
                "controller.self_tuning_pa.pa.alpha",
            ),
            (
                "controller",
                r#"{"self_tuning_is": {"outer": {"window": 1}}}"#,
                "controller.self_tuning_is.outer.window",
            ),
            (
                "controller",
                r#"{"fixed_analytic_optimum": {"n_max": 0}}"#,
                "controller.fixed_analytic_optimum.n_max",
            ),
            ("control.sample_interval_ms", "0", "control.sample_interval_ms"),
            ("clients", r#"{"population": 401, "timeout": 100}"#, "clients.population"),
            (
                "clients",
                r#"{"population": 10, "timeout": {"erlang": {"stages": 0, "mean": 50}}}"#,
                "clients.timeout.erlang.stages",
            ),
            (
                "faults",
                r#"[{"at": 100, "repair": {"erlang": {"stages": 0, "mean": 5}}, "cpus_down": 1}]"#,
                "faults[].repair.erlang.stages",
            ),
            ("workload.k", "-3", "workload.k"),
            ("workload.k", "0", "workload.k"),
            ("workload.k", r#"{"piecewise": []}"#, "workload.k"),
            ("workload.query_frac", "1.5", "workload.query_frac"),
            (
                "workload.write_frac",
                r#"{"ramp": {"from": 0.5, "to": -0.5, "t_start": 0, "t_end": 10}}"#,
                "workload.write_frac",
            ),
            ("workload.access_skew", "-1", "workload.access_skew"),
            (
                "workload.arrival_rate_factor",
                "0",
                "workload.arrival_rate_factor",
            ),
            (
                "workload.think_time_factor",
                "-1",
                "workload.think_time_factor",
            ),
            (
                "workload.think_time_factor",
                r#"{"piecewise": []}"#,
                "workload.think_time_factor",
            ),
        ] {
            let mut v = parse(r#"{"name": "bad", "horizon_ms": 5000.0}"#);
            set_path(&mut v, path, parse(value)).unwrap();
            let err = compile_value(&v, &PathBuf::from("."), false)
                .expect_err(&format!("{path}={value} compiled"))
                .to_string();
            assert!(err.contains(names), "{path}={value}: {err}");
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let v = parse(
            r#"{
            "name": "det", "horizon_ms": 5000.0, "replications": 3,
            "workload": {"k": {"phases": [[0, 8], [2000.0, {"sinusoid":
                {"mean": 10, "amplitude": 4, "period": 1000.0}}]]}},
            "variants": [
                {"name": "a", "set": {"cc": "2pl"}},
                {"name": "b", "set": {"controller": {"pa": {}}}}
            ]
        }"#,
        );
        let p1 = compile_value(&v, &PathBuf::from("."), false).unwrap();
        let p2 = compile_value(&v, &PathBuf::from("."), false).unwrap();
        assert_eq!(p1, p2, "same spec must compile to the same plan");
        assert_eq!(p1.variants.len(), 2);
        assert_eq!(p1.variants[0].cell.cc, CcSpec::Fixed(CcKind::TwoPhaseLocking));
        assert!(matches!(
            p1.variants[1].cell.controller,
            ControllerSpec::Pa(_)
        ));
        // Replication 0 uses the spec seed; later ones differ.
        let seeds = &p1.variants[0].seeds;
        assert_eq!(seeds.len(), 3);
        assert_eq!(seeds[0], SystemConfig::default().seed);
        assert_ne!(seeds[1], seeds[0]);
        assert_ne!(seeds[2], seeds[1]);
    }

    #[test]
    fn quick_overrides_apply_only_under_quick() {
        let v = parse(
            r#"{
            "name": "q", "horizon_ms": 100000.0,
            "system": {"terminals": 500},
            "quick": {"horizon_ms": 1000.0, "system.terminals": 40}
        }"#,
        );
        let full = compile_value(&v, &PathBuf::from("."), false).unwrap();
        assert_eq!(full.variants[0].cell.horizon_ms, 100_000.0);
        assert_eq!(full.variants[0].cell.system.terminals, 500);
        let quick = compile_value(&v, &PathBuf::from("."), true).unwrap();
        assert_eq!(quick.variants[0].cell.horizon_ms, 1_000.0);
        assert_eq!(quick.variants[0].cell.system.terminals, 40);
    }

    #[test]
    fn variant_set_typo_is_caught_by_strict_reparse() {
        let v = parse(
            r#"{
            "name": "t", "horizon_ms": 1000.0,
            "variants": [{"name": "bad", "set": {"controler": "unlimited"}}]
        }"#,
        );
        let err = compile_value(&v, &PathBuf::from("."), false).unwrap_err();
        assert!(
            err.to_string().contains("controler"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn sweep_axis_targets_offered_load_in_tx_per_s() {
        // The ROADMAP item: load grids read in the paper's tx/s units;
        // each cell lowers to the matching interarrival mean.
        let v = parse(
            r#"{
            "name": "ol", "horizon_ms": 1000.0,
            "system": {"terminals": 60, "offered_load_per_s": 50},
            "sweep": {"axes": [{"header": "offered_tx_s",
                                "path": "system.offered_load_per_s",
                                "values": [50, 100, 250]}]}
        }"#,
        );
        let plan = compile_value(&v, &PathBuf::from("."), false).unwrap();
        assert_eq!(plan.variants.len(), 3);
        for (vp, rate) in plan.variants.iter().zip([50.0, 100.0, 250.0]) {
            let alc_tpsim::config::ArrivalProcess::Open { interarrival } = vp.cell.system.arrival
            else {
                panic!("cell must be open-mode");
            };
            assert_eq!(interarrival, alc_des::dist::Dist::exponential(1000.0 / rate));
        }
        assert_eq!(
            plan.variants.iter().map(|v| v.label.as_str()).collect::<Vec<_>>(),
            vec!["50", "100", "250"]
        );
    }

    #[test]
    fn repair_faults_sample_per_replication_deterministically() {
        let v = parse(
            r#"{
            "name": "rep", "horizon_ms": 60000.0, "replications": 3,
            "system": {"terminals": 10, "cpus": 4},
            "faults": [{"at": 10000.0, "repair": {"exponential": 5000}, "cpus_down": 2},
                       {"at": 30000.0, "duration": 2000.0, "cpus_down": 1}]
        }"#,
        );
        let a = compile_value(&v, &PathBuf::from("."), false).unwrap();
        let b = compile_value(&v, &PathBuf::from("."), false).unwrap();
        assert_eq!(a, b, "sampled repair times must be seed-deterministic");
        let per_rep = &a.variants[0].fault_timelines;
        assert_eq!(per_rep.len(), 3);
        for timeline in per_rep {
            assert_eq!(timeline.len(), 4);
            assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0));
            // The fixed window is identical in every replication.
            assert!(timeline.iter().any(|&(t, d)| t == 30_000.0 && d == -1));
            assert!(timeline.iter().any(|&(t, d)| t == 32_000.0 && d == 1));
        }
        // The sampled outage differs across replications (distinct seeds).
        let restore = |tl: &Vec<(f64, i32)>| {
            tl.iter()
                .find(|&&(t, d)| d == 2 && t != 32_000.0)
                .map(|&(t, _)| t)
                .expect("sampled restore edge")
        };
        assert_ne!(restore(&per_rep[0]), restore(&per_rep[1]));
    }

    #[test]
    fn fixed_analytic_optimum_resolves_against_workload() {
        let v = parse(
            r#"{
            "name": "fa", "horizon_ms": 1000.0,
            "system": {"terminals": 40, "cpus": 4, "db_size": 300},
            "controller": {"fixed_analytic_optimum": {"n_max": 60}}
        }"#,
        );
        let plan = compile_value(&v, &PathBuf::from("."), false).unwrap();
        let vp = &plan.variants[0].cell;
        let ctrl = vp.controller.build(&vp.system, &vp.workload).unwrap();
        let bound = ctrl.current_bound();
        assert!((2..=60).contains(&bound), "implausible optimum {bound}");
    }
}
