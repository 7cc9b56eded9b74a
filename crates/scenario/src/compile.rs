//! The spec → run-plan compiler.
//!
//! Compilation is *deterministic*: the same spec tree (plus the same
//! `--quick`/`--set` inputs and trace files) always lowers to the same
//! [`RunPlan`], and the plan fully determines every simulator run (all
//! randomness derives from the per-replication seeds recorded in it).
//!
//! Variants compile by cloning the spec's JSON tree, applying the
//! variant's `set` overrides (then the quick overrides under `--quick`)
//! and re-parsing — so a variant can change *anything* a spec can say,
//! from one control flag to the whole controller object. The re-parse
//! is the only check a cell gets, its override paths and its rules
//! alike: the reader returns the engine's own configs, checked, and
//! when a cell does not read, `validate::land` names every override to
//! blame. What compiling adds to a read cell is its replication seeds,
//! each seed's fault timeline (the one rule left here: the faults must
//! not kill more CPUs than are installed, which a sampled outage decides
//! per seed) and its labels.

use std::path::Path;

use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

use crate::spec::{
    AdaptiveCcSpec, ColumnSpec, ControllerSpec, FaultSpec, ScenarioSpec, StatColumn, VariantSpec,
};
use crate::validate::{dead_paths, land};
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
    /// Grid structure when the plan came from a `sweep` spec: the
    /// variants are the cross-product cells in row-major order (last
    /// axis fastest).
    pub sweep: Option<SweepPlan>,
    /// One compiled variant per run group.
    pub variants: Vec<VariantPlan>,
}

/// The compiled shape of a sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// `(header, cell labels)` per axis, in axis order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Pivot the last axis into columns showing `(stat, prefix)`.
    pub pivot: Option<(StatColumn, String)>,
}

impl SweepPlan {
    /// Grid coordinates of cell `idx` (row-major, last axis fastest).
    pub fn coords(&self, mut idx: usize) -> Vec<usize> {
        let mut coords = vec![0; self.axes.len()];
        for i in (0..self.axes.len()).rev() {
            let len = self.axes[i].1.len();
            coords[i] = idx % len;
            idx /= len;
        }
        coords
    }
}

/// One compiled variant: a concrete engine configuration plus its
/// replication seeds.
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
    pub cells: Vec<(String, String)>,
    /// Physical system (seed field is per-replication; see `seeds`).
    pub sys: SystemConfig,
    /// Time-varying workload.
    pub workload: WorkloadConfig,
    /// CC protocol at t = 0 (for adaptive plans: `candidates[0]`).
    pub cc: CcKind,
    /// Scheduled drain-and-swap CC switches `(t_ms, target)`.
    pub cc_switches: Vec<(f64, CcKind)>,
    /// Closed-loop protocol selection (builds one policy per run).
    pub adaptive_cc: Option<AdaptiveCcSpec>,
    /// Each replication's scheduled CPU-capacity deltas `(t_ms, delta)`
    /// lowered from the fault windows, ascending; indexed like `seeds`.
    /// A sampled `repair` distribution differs per seed; fixed windows
    /// lower identically in every replication.
    pub faults: Vec<Vec<(f64, i32)>>,
    /// Closed-loop client pool replacing the patient terminals (timeouts,
    /// retries, abandonment); `None` runs the paper's patient model.
    pub clients: Option<alc_tpsim::client::ClientConfig>,
    /// Measurement/control wiring.
    pub control: ControlConfig,
    /// Controller to instantiate per replication.
    pub controller: ControllerSpec,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// Master seed per replication (replication 0 uses the spec seed).
    pub seeds: Vec<u64>,
    /// Record the analytic-optimum trajectory.
    pub record_optimum: bool,
    /// Write trajectory CSVs.
    pub trajectories: bool,
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
        let sys = SystemConfig {
            seed: self.seeds[rep],
            ..self.sys
        };
        let controller = self.controller.build(&sys, &self.workload);
        let mut sim = Simulator::new(
            sys,
            self.workload.clone(),
            self.cc,
            self.control,
            controller,
        );
        sim.set_record_optimum(self.record_optimum);
        if !self.cc_switches.is_empty() {
            sim.set_cc_switches(&self.cc_switches);
        }
        if let Some(adaptive) = &self.adaptive_cc {
            let (candidates, policy) = adaptive.build();
            sim.set_adaptive_cc(candidates, policy);
        }
        let faults = &self.faults[rep];
        if !faults.is_empty() {
            sim.set_faults(faults);
        }
        if let Some(clients) = &self.clients {
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
    let spec = ScenarioSpec::from_value(base, base_dir)?;
    if spec.sweep.is_some() {
        return compile_sweep(base, spec, base_dir, quick);
    }
    let implicit;
    let variant_specs: &[VariantSpec] = if spec.variants.is_empty() {
        implicit = [VariantSpec {
            name: String::new(),
            set: Vec::new(),
            quick: Vec::new(),
        }];
        &implicit
    } else {
        &spec.variants
    };

    let mut variants = Vec::with_capacity(variant_specs.len());
    let mut dead = Vec::new();
    for vs in variant_specs {
        let mut layers = vec![(format!("variant `{}` `set`", vs.name), vs.set.clone())];
        if quick {
            layers.push(("`quick`".to_string(), spec.quick.clone()));
            layers.push((format!("variant `{}` `quick`", vs.name), vs.quick.clone()));
        }
        match land(base, base_dir, &layers) {
            Ok((_, vspec)) => variants.push(build_variant(vspec, &vs.name)?),
            Err(lines) => dead.extend(lines),
        }
    }
    if !dead.is_empty() {
        return Err(dead_paths(dead));
    }

    finish_plan(spec, None, variants)
}

/// Compiles a sweep spec: spec-level quick overrides apply first (they
/// may rescale the grid itself), then the cross-product expands into one
/// cell per combination, each cell a plain single-run spec with the axis
/// values applied. Expansion is deterministic: row-major order, last
/// axis fastest.
fn compile_sweep(
    base: &Value,
    spec: ScenarioSpec,
    base_dir: &Path,
    quick: bool,
) -> Result<RunPlan, SpecError> {
    let (tree, spec) = if quick {
        let quick = [("`quick`".to_string(), spec.quick.clone())];
        land(base, base_dir, &quick).map_err(dead_paths)?
    } else {
        (base.clone(), spec)
    };
    let sweep = spec.sweep.clone().expect("compile_sweep needs a sweep section");

    // Each cell re-parses as a plain spec: strip the sweep section.
    let cell_base = {
        let Value::Map(entries) = &tree else {
            // alc-lint: allow(panic-in-lib, reason="from_value on this tree just succeeded, so it is a map")
            unreachable!("parsed specs are maps");
        };
        let mut kept: Vec<(String, Value)> = entries.clone();
        kept.retain(|(k, _)| k != "sweep");
        Value::Map(kept)
    };

    let lens: Vec<usize> = sweep.axes.iter().map(|a| a.values.len()).collect();
    let total: usize = lens.iter().product();
    let sweep_plan = SweepPlan {
        axes: sweep
            .axes
            .iter()
            .map(|a| {
                (
                    a.header.clone(),
                    (0..a.values.len()).map(|i| a.label(i)).collect(),
                )
            })
            .collect(),
        pivot: sweep.pivot.as_ref().map(|p| (p.stat, p.prefix.clone())),
    };

    let mut variants = Vec::with_capacity(total);
    let mut dead = Vec::new();
    for idx in 0..total {
        let coords = sweep_plan.coords(idx);
        let mut layers = Vec::with_capacity(coords.len());
        let mut label = Vec::with_capacity(coords.len());
        for (i, (axis, &c)) in sweep.axes.iter().zip(&coords).enumerate() {
            let set = vec![(axis.path.clone(), axis.values[c].clone())];
            layers.push((format!("sweep axis {i} (`{}`)", axis.header), set));
            label.push(axis.label(c));
        }
        match land(&cell_base, base_dir, &layers) {
            Ok((_, vspec)) => variants.push(build_variant(vspec, &label.join("_"))?),
            Err(lines) => dead.extend(lines),
        }
    }
    if !dead.is_empty() {
        return Err(dead_paths(dead));
    }

    finish_plan(spec, Some(sweep_plan), variants)
}

/// Assembles the plan and back-fills the trajectory-retention flag from
/// the (plan-level) column set.
fn finish_plan(
    spec: ScenarioSpec,
    sweep: Option<SweepPlan>,
    mut variants: Vec<VariantPlan>,
) -> Result<RunPlan, SpecError> {
    let derived = spec.columns.iter().any(ColumnSpec::needs_trajectories);
    for v in &mut variants {
        v.keep_trajectories = v.trajectories || derived;
    }
    let label_header = match &sweep {
        Some(s) => s.axes[0].0.clone(),
        None => spec.label_header,
    };
    Ok(RunPlan {
        name: spec.name,
        description: spec.description,
        label_header,
        columns: spec.columns,
        sweep,
        variants,
    })
}

/// Lowers fault windows (kill time, outage length, servers) into an
/// ascending CPU-capacity delta timeline, rejecting schedules that would
/// kill more CPUs than are installed. The sort is stable, so a
/// zero-length outage restores immediately after its kill.
fn lower_fault_windows(
    windows: &[(f64, f64, u32)],
    sys: &SystemConfig,
) -> Result<Vec<(f64, i32)>, SpecError> {
    let mut deltas: Vec<(f64, i32)> = Vec::with_capacity(windows.len() * 2);
    for &(at_ms, duration_ms, cpus_down) in windows {
        let down = i32::try_from(cpus_down)
            .map_err(|_| SpecError::new("fault `cpus_down` too large"))?;
        deltas.push((at_ms, -down));
        deltas.push((at_ms + duration_ms, down));
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

/// Lowers the fault specs for one replication: fixed windows pass
/// through, repair-time distributions are sampled per fault from the
/// replication seed's dedicated `fault_repair` RNG substream (spec
/// order), so the schedule is fully determined by the recorded seed and
/// no other stream shifts.
fn lower_faults_for_seed(
    faults: &[FaultSpec],
    sys: &SystemConfig,
    seed: u64,
) -> Result<Vec<(f64, i32)>, SpecError> {
    use alc_des::dist::Sample as _;
    let mut rng = alc_des::rng::SeedFactory::new(seed).stream("fault_repair");
    let windows: Vec<(f64, f64, u32)> = faults
        .iter()
        .map(|f| {
            let duration = match &f.recovery {
                crate::spec::FaultRecovery::Fixed(d) => *d,
                // A pathological draw below zero clamps to an instant
                // repair (kill and restore at the same time, kill first).
                crate::spec::FaultRecovery::Repair(dist) => dist.sample(&mut rng).max(0.0),
            };
            (f.at_ms, duration, f.cpus_down)
        })
        .collect();
    lower_fault_windows(&windows, sys)
}

/// The plan of one read cell: its seeds, each seed's fault timeline and
/// its labels.
fn build_variant(spec: ScenarioSpec, label: &str) -> Result<VariantPlan, SpecError> {
    let seeds: Vec<u64> = (0..spec.replications)
        .map(|r| replication_seed(spec.system.seed, r))
        .collect();
    let faults = seeds
        .iter()
        .map(|&s| lower_faults_for_seed(&spec.faults, &spec.system, s))
        .collect::<Result<Vec<_>, _>>()?;
    let cells = spec
        .inputs
        .into_iter()
        .find(|(name, _)| name == label)
        .map(|(_, cells)| cells)
        .unwrap_or_default();
    let display_label = match &spec.label_from {
        Some(lf) => cells
            .iter()
            .find(|(col, _)| col == lf)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| label.to_string()),
        None => label.to_string(),
    };
    Ok(VariantPlan {
        label: label.to_string(),
        display_label,
        cells,
        sys: spec.system,
        workload: spec.workload,
        cc: spec.cc,
        cc_switches: spec.cc_phases,
        adaptive_cc: spec.cc_adaptive,
        faults,
        clients: spec.clients,
        control: spec.control,
        controller: spec.controller,
        horizon_ms: spec.horizon_ms,
        seeds,
        record_optimum: spec.record_optimum,
        trajectories: spec.trajectories,
        keep_trajectories: spec.trajectories,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_util::set_path;
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
        let vp = &plan.variants[0];
        assert_eq!(vp.sys.terminals, 30);
        assert_eq!(vp.sys.seed, 7);
        assert_eq!(vp.sys.think, alc_des::dist::Dist::exponential(250.0));
        assert!(vp.control.displacement);
        assert_eq!(vp.workload.at(0.0).k, 4);
        assert_eq!(vp.workload.at(3000.0).k, 8);
        // Untouched fields keep SystemConfig defaults.
        assert_eq!(vp.sys.cpus, SystemConfig::default().cpus);
    }

    #[test]
    fn configs_the_engine_would_panic_on_are_spec_errors() {
        // Each of these passed `scenario validate` and then panicked
        // `scenario run` (a station, the RNG, the clock, a sampler, the
        // calendar; then a controller constructor, the
        // estimator inside one, the analytic optimum scan, the sample
        // tick, the client pool), or ran as another value (a workload
        // field outside its domain).
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
            ("control.sample_interval_ms", "1e400", "control.sample_interval_ms"),
            ("clients", r#"{"population": 401, "timeout": 100}"#, "clients.population"),
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
        assert_eq!(p1.variants[0].cc, CcKind::TwoPhaseLocking);
        assert!(matches!(
            p1.variants[1].controller,
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
        assert_eq!(full.variants[0].horizon_ms, 100_000.0);
        assert_eq!(full.variants[0].sys.terminals, 500);
        let quick = compile_value(&v, &PathBuf::from("."), true).unwrap();
        assert_eq!(quick.variants[0].horizon_ms, 1_000.0);
        assert_eq!(quick.variants[0].sys.terminals, 40);
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
            let alc_tpsim::config::ArrivalProcess::Open { interarrival } = vp.sys.arrival
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
        let per_rep = &a.variants[0].faults;
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
        let vp = &plan.variants[0];
        let ctrl = vp.controller.build(&vp.sys, &vp.workload).unwrap();
        let bound = ctrl.current_bound();
        assert!((2..=60).contains(&bound), "implausible optimum {bound}");
    }
}
