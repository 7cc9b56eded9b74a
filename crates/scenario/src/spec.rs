//! The typed scenario spec and its strict reader.
//!
//! A spec is one experiment: a workload trajectory, a system/control
//! configuration, a controller, and optionally a list of *variants* —
//! named override sets run against the same base (ablation axes). Every
//! unknown key is an error: a typo'd field must never silently keep its
//! default. Each section parses through [`Obj`], whose known keys are
//! the ones its parser asks for. The reader is the spec's only schema:
//! an override path is checked by applying it and reading the tree it
//! lands on (`validate::land`).
//!
//! The front end only reads. A spec file becomes a [`Value`] tree; every
//! override (`--set`, `quick`, a variant's `set`, a sweep axis) is
//! applied to that *tree*; and `compile_value` parses the tree into a
//! [`ScenarioSpec`] once per cell. Nothing ever needs a `ScenarioSpec`
//! written back out, so there is no `Serialize` side to keep in step
//! with the reader — tests that need a spec generate the tree a user
//! would write.
//!
//! A [`ScenarioSpec`] is the plan's own fields (name, report columns,
//! variants or sweep, inputs, `quick`) around one [`CellSpec`]: what a
//! run group runs. The reader returns the engine's own types: `system`,
//! `control` and `workload` read straight into [`SystemConfig`],
//! [`ControlConfig`] and [`WorkloadConfig`], and every rule on a cell is
//! checked here, as the cell is read — each config's own `check`, the
//! clients' fit to the system, Tay's arguments and `k` ≤ `db_size` — so
//! `validate::land` blames a broken cell on the override that broke it.
//! The compiled plan keeps each cell as read; compiling adds only its
//! replication seeds, each seed's fault timeline and its labels.
//!
//! This file holds the typed model and the top-level
//! [`ScenarioSpec::from_value`]; `spec/columns.rs` is the report-column
//! vocabulary, `spec/sections.rs` the per-section parsers.
//!
//! ```json
//! {
//!   "name": "fig13",
//!   "description": "IS under an abrupt jump of the optimum",
//!   "seed": 987654,
//!   "horizon_ms": 2000000.0,
//!   "cc": "certification",
//!   "system": {"terminals": 500},
//!   "control": {"sample_interval_ms": 2000.0, "warmup_ms": 0.0},
//!   "workload": {"k": {"step": {"at": 1000000.0, "before": 8, "after": 16}}},
//!   "controller": {"is": {"initial_bound": 50, "max_bound": 800}},
//!   "trajectories": true
//! }
//! ```

mod columns;
mod sections;
mod tests;

use std::path::Path;

use alc_core::controller::{
    FixedBound, Hybrid as HybridCtrl, HybridParams, IncrementalSteps, IsParams, IyerRule,
    IyerRuleParams, LoadController, OuterParams, PaOuterParams, PaParams,
    ParabolaApproximation, RetryBudget, RetryBudgetParams, SelfTuningIs as SelfTuningIsCtrl,
    SelfTuningPa as SelfTuningPaCtrl, TayRule, Unlimited,
};
use alc_core::meta::{GuardParams, Ladder, LadderSignal, MetaPolicy, ShadowScore};
use alc_des::dist::Dist;
use alc_tpsim::client::ClientConfig;
use alc_tpsim::config::{CcKind, ControlConfig, SystemConfig};
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

pub use self::columns::{ClientColumn, ColumnSpec, DerivedColumn, StatColumn};
use self::columns::{column_from_value, default_columns, COLUMN, DERIVED};
use self::sections::{
    cc_field_from_value, clients_from_value, control_from_value, controller_from_value,
    fault_from_value, filename_safe, inputs_from_value, sweep_from_value, system_from_value,
    variant_from_value, workload_from_value, CC_FORMS, CONTROLLER, CONTROLLER_NAMES, INDICATOR,
    POLICY, RETRY, VICTIM_POLICY,
};
use crate::profile::PROFILE;
use crate::value_util::{
    boolean, list, nonempty, pairs, positive, positive_u32, string, u64_from, Keys, Obj,
    ARRIVAL, ARRIVAL_NAMES, DIST,
};
use crate::SpecError;

/// One scenario: the declarative form the `scenario` binary runs — the
/// plan's own fields, and the base [`CellSpec`] every variant and sweep
/// cell starts from.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario id — also the stem of every emitted CSV.
    pub name: String,
    /// One-line description (report title).
    pub description: String,
    /// The cell the spec's own tree reads as: what runs when there are no
    /// variants, and what every variant's and sweep cell's overrides land
    /// on.
    pub cell: CellSpec,
    /// Header of the label column in the report table.
    pub label_header: String,
    /// Columns of the report table (raw stats, derived tracking-error
    /// columns, per-variant input cells, literals).
    pub columns: Vec<ColumnSpec>,
    /// Named override sets producing one run group each (mutually
    /// exclusive with `sweep`).
    pub variants: Vec<VariantSpec>,
    /// Grid axes expanding into one run per cross-product cell —
    /// load–throughput curves and protocol grids (mutually exclusive
    /// with `variants`).
    pub sweep: Option<SweepSpec>,
    /// Literal per-variant table cells, keyed by variant name: the swept
    /// *inputs* of an ablation (e.g. the α of each variant), rendered by
    /// `{"input": …}` columns and `label_from`.
    pub inputs: VariantInputs,
    /// When set, the report's label column shows this input cell instead
    /// of the variant name (names must stay unique; labels need not).
    pub label_from: Option<String>,
    /// Path → value overrides applied under `--quick` (CI scale).
    pub quick: Vec<(String, Value)>,
}

/// One run group as read: the engine's configs, the controller, the
/// protocol with its schedule, the faults and the client pool, and how
/// long and how often to run it. The reader checks the rules that tie
/// its sections together too; compiling adds only seeds, each seed's
/// fault timeline and labels ([`crate::compile::VariantPlan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Independent replications per variant (different derived seeds).
    pub replications: u32,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// The concurrency-control protocol plan: one protocol, a schedule
    /// of them, or a policy choosing among candidates.
    pub cc: CcSpec,
    /// Scheduled station faults (CPU kill/restart windows).
    pub faults: Vec<FaultSpec>,
    /// Closed-loop client population replacing the patient terminals:
    /// timeouts, retry policies and abandonment (the
    /// overload/metastability vocabulary). `None` keeps the
    /// paper's patient closed model byte-identical.
    pub clients: Option<ClientConfig>,
    /// The physical system. Its `seed`, the master seed of replication
    /// 0 (later replications derive from it), is the spec's top-level
    /// `seed` field.
    pub system: SystemConfig,
    /// Measurement and control wiring.
    pub control: ControlConfig,
    /// The time-varying workload.
    pub workload: WorkloadConfig,
    /// The load controller (or a static/baseline policy).
    pub controller: ControllerSpec,
    /// Record the analytic optimum trajectory `n_opt(t)`.
    pub record_optimum: bool,
    /// Write per-run trajectory CSVs.
    pub trajectories: bool,
}

/// A cell's protocol plan, the spec's `cc` field.
#[derive(Debug, Clone, PartialEq)]
pub enum CcSpec {
    /// One protocol for the whole run (a bare name).
    Fixed(CcKind),
    /// `{"phases": …}`: switches `(t_ms, protocol)` as written, the first
    /// at 0, strictly ascending; at each later one the engine drains
    /// in-flight transactions and swaps the protocol.
    Phases(Vec<(f64, CcKind)>),
    /// `{"adaptive": …}`: a meta-policy picks the protocol online.
    Adaptive(AdaptiveCcSpec),
}

impl CcSpec {
    /// The protocol in force at t = 0.
    pub fn initial(&self) -> CcKind {
        match self {
            CcSpec::Fixed(cc) => *cc,
            CcSpec::Phases(phases) => phases[0].1,
            CcSpec::Adaptive(adaptive) => adaptive.candidates[0],
        }
    }
}

/// Literal per-variant input cells: `(variant name, [(cell, text)])`.
pub type VariantInputs = Vec<(String, Vec<(String, String)>)>;

/// One scheduled station fault: `cpus_down` CPUs die at `at_ms` and come
/// back when the outage ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Kill time, ms.
    pub at_ms: f64,
    /// How long the outage lasts, ms: the spec's `duration` as a
    /// constant, or its `repair` distribution. Sampled once per fault
    /// per replication from the run's own `fault_repair` RNG substream
    /// (a constant draws nothing), so drawing it never perturbs another
    /// stream; a draw below zero clamps to an instant repair.
    pub outage: Dist,
    /// Servers killed (restored when the outage ends).
    pub cpus_down: u32,
}

/// The spec/CSV name of a protocol — the one spelling the `cc` field
/// accepts, also used by `time_in_protocol` column headers and the
/// switch-event CSV.
pub fn cc_spec_name(cc: CcKind) -> &'static str {
    match cc {
        CcKind::Certification => "certification",
        CcKind::TwoPhaseLocking => "2pl",
        CcKind::TimestampOrdering => "timestamp-ordering",
        CcKind::WoundWait => "wound-wait",
        CcKind::WaitDie => "wait-die",
        CcKind::Multiversion => "mvto",
    }
}

/// The column where [`vocabulary`] starts each row's names.
const VOCABULARY_INDENT: usize = 24;

/// The DSL's vocabulary, read off the reader's own tables: what
/// `scenario --help` lists, and the block README holds. A quoted name
/// is a string value, `{"tag": …}` a single-key object.
pub fn vocabulary() -> String {
    let quoted = |names: &[&str]| names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>();
    let objects = |tags: Keys| tags.iter().map(|t| format!("{{\"{t}\": …}}")).collect::<Vec<_>>();
    let number = || vec!["<number>".to_string()];
    let rows = [
        (
            "controller",
            [quoted(&CONTROLLER_NAMES.map(|(n, _)| n)), objects(CONTROLLER)].concat(),
        ),
        ("cc", [quoted(&CcKind::ALL.map(cc_spec_name)), objects(CC_FORMS)].concat()),
        ("cc.adaptive.policy", objects(POLICY)),
        ("clients.retry", objects(RETRY)),
        ("arrival", [quoted(&ARRIVAL_NAMES.map(|(n, _)| n)), objects(ARRIVAL)].concat()),
        ("control.indicator", quoted(&INDICATOR.map(|(n, _)| n))),
        ("control.victim_policy", quoted(&VICTIM_POLICY.map(|(n, _)| n))),
        ("profile", [number(), objects(PROFILE)].concat()),
        ("distribution", [number(), objects(DIST)].concat()),
        ("stat columns", quoted(&StatColumn::ALL.map(|c| c.name()))),
        ("client columns", quoted(&ClientColumn::ALL.map(|c| c.name()))),
        ("other columns", [quoted(&DERIVED.map(|(n, _)| n)), objects(COLUMN)].concat()),
    ];
    let mut out = String::new();
    for (label, names) in rows {
        let mut line = format!("  {label:<width$}", width = VOCABULARY_INDENT - 2);
        for name in names {
            let width = line.chars().count();
            if width > VOCABULARY_INDENT && width + 1 + name.chars().count() > 78 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(VOCABULARY_INDENT);
            }
            line.push(' ');
            line.push_str(&name);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The [`CcSpec::Adaptive`] section: candidate protocols, the policy
/// choosing among them, and the anti-oscillation guards. The run starts
/// under `candidates[0]`; at every measurement interval the policy sees
/// the interval's conflict state and may drain-and-swap to another
/// candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCcSpec {
    /// The candidate protocols, in the order the policy indexes them
    /// (for the ladder policies: calmest workload first).
    pub candidates: Vec<CcKind>,
    /// The selection policy.
    pub policy: MetaPolicySpec,
    /// The anti-oscillation guards, in the milliseconds the policies
    /// count (the spec writes the dwell and the cooldown in seconds).
    pub guard: GuardParams,
}

/// The policy inside an adaptive `cc` section.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaPolicySpec {
    /// Threshold-with-hysteresis ladder on an EWMA'd signal: the conflict
    /// ratio (tag `conflict_threshold`) or the abort (restart) ratio (tag
    /// `restart_rate`).
    Ladder {
        /// The signal the ladder watches.
        signal: LadderSignal,
        /// Centre of the signal's band (conflicts per commit, or an abort
        /// ratio in (0, 1)).
        threshold: f64,
        /// EWMA weight on each new observation, in (0, 1].
        ewma_weight: f64,
    },
    /// O|R|P|E-style per-candidate running throughput scores.
    ShadowScore {
        /// EWMA weight on each interval's throughput, in (0, 1].
        ewma_weight: f64,
    },
}

impl AdaptiveCcSpec {
    /// The first rule the policy's constructor would panic on (its own
    /// `check`), as `<key> must …` with the key's path under `cc.adaptive`
    /// (the policy's own arguments sit in `policy.<tag>`).
    pub fn check(&self) -> Result<(), String> {
        let (n, guard) = (self.candidates.len(), self.guard);
        let (tag, checked) = match self.policy {
            MetaPolicySpec::Ladder { signal, threshold: t, ewma_weight: w } => (
                match signal {
                    LadderSignal::ConflictsPerTxn => "conflict_threshold",
                    LadderSignal::AbortRatio => "restart_rate",
                },
                Ladder::check(signal, n, t, w, &guard),
            ),
            MetaPolicySpec::ShadowScore { ewma_weight: w } => ("shadow_score", ShadowScore::check(n, w, &guard)),
        };
        checked.map_err(|e| match e.split(' ').next() {
            Some("threshold" | "ewma_weight") => format!("policy.{tag}.{e}"),
            _ => e,
        })
    }

    /// Instantiates the candidate list and the boxed policy for one run.
    pub fn build(&self) -> (Vec<CcKind>, Box<dyn MetaPolicy>) {
        let (n, guard) = (self.candidates.len(), self.guard);
        let policy: Box<dyn MetaPolicy> = match self.policy {
            MetaPolicySpec::Ladder { signal, threshold: t, ewma_weight: w } => {
                Box::new(Ladder::new(signal, n, t, w, guard))
            }
            MetaPolicySpec::ShadowScore { ewma_weight: w } => Box::new(ShadowScore::new(n, w, guard)),
        };
        (self.candidates.clone(), policy)
    }
}

/// The sweep section: a grid of axes, each a spec path and a value list;
/// the compiler expands the exact cross-product into one run per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The grid axes; the first axis is the report's row label, the last
    /// axis pivots into columns when `pivot` is set.
    pub axes: Vec<SweepAxis>,
    /// Pivot the last axis into one column per value, showing `stat`.
    pub pivot: Option<PivotSpec>,
}

/// One sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Column header of the axis in the report.
    pub header: String,
    /// Dotted spec path each value is applied to.
    pub path: String,
    /// The grid values (any JSON value the path accepts).
    pub values: Vec<Value>,
    /// Explicit display labels (default: rendered from the values).
    pub labels: Option<Vec<String>>,
}

/// Pivot settings: the last axis becomes columns named
/// `<prefix><label>`, each showing `stat` for that cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSpec {
    /// The stat shown in the pivoted cells.
    pub stat: StatColumn,
    /// Column-name prefix (e.g. `T_`).
    pub prefix: String,
}

impl SweepSpec {
    /// Grid coordinates of cell `idx` (row-major, last axis fastest).
    pub fn coords(&self, mut idx: usize) -> Vec<usize> {
        let mut coords = vec![0; self.axes.len()];
        for (coord, axis) in coords.iter_mut().zip(&self.axes).rev() {
            *coord = idx % axis.values.len();
            idx /= axis.values.len();
        }
        coords
    }
}

impl SweepAxis {
    /// Display label of value `i` (explicit label, else rendered).
    pub fn label(&self, i: usize) -> String {
        if let Some(labels) = &self.labels {
            return labels[i].clone();
        }
        render_axis_value(&self.values[i])
    }
}

/// Renders a sweep-axis value for row labels and cell names: integers
/// verbatim, floats through the shared table format, strings as-is.
fn render_axis_value(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::Num(x) => crate::table::num(*x),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// One variant: a named set of overrides on the base spec (the default
/// is the implicit, unnamed variant of a spec without `variants`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VariantSpec {
    /// Variant label (row label, trajectory-file suffix).
    pub name: String,
    /// Path → value overrides applied for this variant.
    pub set: Vec<(String, Value)>,
    /// Additional path → value overrides applied under `--quick`, after
    /// the spec-level quick overrides.
    pub quick: Vec<(String, Value)>,
}

/// The controller section: the §4 feedback controllers, the self-tuning
/// baselines and the static rules of thumb, each with full parameter
/// control (omitted parameters keep their crate defaults).
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    /// No controller: the gate stays at `control.initial_bound`.
    None,
    /// No admission limit at all (`Unlimited` baseline).
    Unlimited,
    /// A fixed static bound.
    Fixed {
        /// The bound.
        bound: u32,
    },
    /// A fixed bound pinned to the *analytic* optimum of the compiled
    /// workload at `at_ms` — the "perfectly informed DBA" baseline.
    FixedAnalyticOptimum {
        /// Workload time the optimum is computed at, ms.
        at_ms: f64,
        /// Scan limit for the optimum search.
        n_max: u32,
    },
    /// Incremental Steps (§4.1).
    Is(IsParams),
    /// Parabola Approximation (§4.2).
    Pa(PaParams),
    /// IS with the §5 outer loop auto-tuning its gain β.
    SelfTuningIs {
        /// Inner IS parameters.
        is: IsParams,
        /// Outer-loop tuning.
        outer: OuterParams,
    },
    /// PA with the §5 outer loop auto-tuning its forgetting factor α
    /// (the outer loop at its defaults).
    SelfTuningPa(PaParams),
    /// The IS-bootstrapped, PA-refined hybrid.
    Hybrid(HybridParams),
    /// Iyer's conflict-rate rule as a feedback baseline.
    Iyer(IyerRuleParams),
    /// Token-bucket retry budgeting (the runtime's `RetryBudgetLaw` is
    /// this controller, so its gate logs replay through the embeddable
    /// law).
    RetryBudget(RetryBudgetParams),
    /// Tay's static `k²n/D < 1.5` rule of thumb.
    Tay {
        /// The (assumed) locks per transaction.
        k: u32,
        /// Static lower bound.
        min_bound: u32,
        /// Static upper bound.
        max_bound: u32,
    },
}

impl ControllerSpec {
    /// Instantiates the controller against the compiled system/workload
    /// (`None` means "run with the static initial bound").
    pub fn build(
        &self,
        sys: &SystemConfig,
        workload: &WorkloadConfig,
    ) -> Option<Box<dyn LoadController>> {
        match self {
            ControllerSpec::None => None,
            ControllerSpec::Unlimited => Some(Box::new(Unlimited)),
            ControllerSpec::Fixed { bound } => Some(Box::new(FixedBound::new(*bound))),
            ControllerSpec::FixedAnalyticOptimum { at_ms, n_max } => Some(Box::new(
                FixedBound::new(workload.analytic_optimum(*at_ms, sys, *n_max)),
            )),
            ControllerSpec::Is(p) => Some(Box::new(IncrementalSteps::new(*p))),
            ControllerSpec::Pa(p) => Some(Box::new(ParabolaApproximation::new(*p))),
            ControllerSpec::SelfTuningIs { is, outer } => {
                Some(Box::new(SelfTuningIsCtrl::new(*is, *outer)))
            }
            ControllerSpec::SelfTuningPa(pa) => Some(Box::new(SelfTuningPaCtrl::new(
                *pa,
                PaOuterParams::default(),
            ))),
            ControllerSpec::Hybrid(p) => Some(Box::new(HybridCtrl::new(*p))),
            ControllerSpec::Iyer(p) => Some(Box::new(IyerRule::new(*p))),
            ControllerSpec::RetryBudget(p) => Some(Box::new(RetryBudget::new(*p))),
            ControllerSpec::Tay {
                k,
                min_bound,
                max_bound,
            } => Some(Box::new(TayRule::new(
                *k,
                sys.db_size,
                *min_bound,
                *max_bound,
            ))),
        }
    }
}

impl ScenarioSpec {
    /// Strictly parses a spec from its JSON tree, reading `trace`
    /// profiles relative to `base_dir`, the spec's directory. Unknown and
    /// repeated keys anywhere are errors, and so is a cell the engine
    /// would not run as written.
    pub fn from_value(v: &Value, base_dir: &Path) -> Result<Self, SpecError> {
        let mut o = Obj::open(v, "spec")?;
        let spec = ScenarioSpec {
            name: o.req("name", string)?,
            description: o.opt("description", string)?.unwrap_or_default(),
            cell: CellSpec::read(&mut o, base_dir)?,
            label_header: o
                .opt("label_header", string)?
                .unwrap_or_else(|| "variant".to_string()),
            columns: o
                .opt("columns", list(column_from_value))?
                .unwrap_or_else(default_columns),
            variants: o
                .opt("variants", list(variant_from_value))?
                .unwrap_or_default(),
            sweep: o.opt("sweep", |v, _| sweep_from_value(v))?,
            inputs: o.opt("inputs", inputs_from_value)?.unwrap_or_default(),
            label_from: o.opt("label_from", nonempty)?,
            quick: o.opt("quick", pairs)?.unwrap_or_default(),
        };
        o.finish(())?;
        if spec.name.is_empty()
            || !spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SpecError::new(
                "`name` must be non-empty [A-Za-z0-9_-] (it names output files)",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for v in &spec.variants {
            if !seen.insert(v.name.as_str()) {
                return Err(SpecError::new(format!("duplicate variant `{}`", v.name)));
            }
            // Variant names land in trajectory file names, so they get
            // the same charset discipline as the spec name (plus `.`,
            // for labels like `iyer-0.75`).
            if !filename_safe(&v.name) {
                return Err(SpecError::new(format!(
                    "variant name `{}` must be non-empty [A-Za-z0-9._-] (it names output files)",
                    v.name
                )));
            }
        }
        if let Some(sweep) = &spec.sweep {
            if !spec.variants.is_empty() {
                return Err(SpecError::new(
                    "`sweep` and `variants` are mutually exclusive (a sweep already \
                     generates one run per grid cell)",
                ));
            }
            if !spec.inputs.is_empty() || spec.label_from.is_some() {
                return Err(SpecError::new(
                    "`inputs`/`label_from` key variants and cannot be used with `sweep` \
                     (axis values already label the rows)",
                ));
            }
            if sweep.pivot.is_some() && spec.cell.replications > 1 {
                return Err(SpecError::new(
                    "a pivoted sweep needs `replications: 1` (one cell, one value)",
                ));
            }
        }
        // Every input row must key a real variant, and every column that
        // reads an input cell must find it in every variant.
        let variant_names: Vec<&str> = spec.variants.iter().map(|v| v.name.as_str()).collect();
        for (variant, _) in &spec.inputs {
            if !variant_names.contains(&variant.as_str()) {
                return Err(SpecError::new(format!(
                    "`inputs` references unknown variant `{variant}`"
                )));
            }
        }
        let mut needed_cells: Vec<&str> = spec
            .columns
            .iter()
            .filter_map(|c| match c {
                ColumnSpec::Input(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        if let Some(lf) = &spec.label_from {
            needed_cells.push(lf.as_str());
        }
        // A cell nothing reads is a typo of one that is read, or dead
        // text; either way an override path to it lands on nothing.
        for (variant, cells) in &spec.inputs {
            let unread = cells.iter().find(|(c, _)| !needed_cells.contains(&c.as_str()));
            if let Some((cell, _)) = unread {
                return Err(SpecError::new(format!(
                    "`inputs.{variant}.{cell}` is read by no `input` column or `label_from`"
                )));
            }
        }
        if !needed_cells.is_empty() {
            // `input` columns and `label_from` read per-variant cells;
            // without variants they could never be satisfied and would
            // silently render placeholders.
            if spec.variants.is_empty() {
                return Err(SpecError::new(
                    "`input` columns / `label_from` need a `variants` section \
                     (they read per-variant cells from `inputs`)",
                ));
            }
            for v in &spec.variants {
                for needed in &needed_cells {
                    let has_cell = spec.inputs.iter().any(|(name, cells)| {
                        name == &v.name && cells.iter().any(|(col, _)| col == needed)
                    });
                    if !has_cell {
                        return Err(SpecError::new(format!(
                            "variant `{}` is missing input cell `{needed}`",
                            v.name
                        )));
                    }
                }
            }
        }
        if spec.columns.iter().any(ColumnSpec::needs_optimum) && !spec.cell.record_optimum {
            return Err(SpecError::new(
                "tracking-error columns need `record_optimum: true` (they compare the \
                 bound against the analytic optimum trajectory)",
            ));
        }
        if spec.cell.clients.is_none()
            && spec
                .columns
                .iter()
                .any(|c| matches!(c, ColumnSpec::Client(_)))
        {
            return Err(SpecError::new(
                "client columns (goodput_per_s, retry_amplification, …) need a \
                 `clients` section",
            ));
        }
        spec.cell.check()?;
        Ok(spec)
    }
}

impl CellSpec {
    /// Reads the cell's keys of the spec object `o`, each section checked
    /// by its own rules as it is read.
    fn read(o: &mut Obj<'_>, base_dir: &Path) -> Result<Self, SpecError> {
        let cc = o.or("cc", |v, _| cc_field_from_value(v), CcSpec::Fixed(CcKind::Certification))?;
        let seed = o.or("seed", u64_from, SystemConfig::default().seed)?;
        Ok(CellSpec {
            replications: o.or("replications", positive_u32, 1)?,
            horizon_ms: o.req("horizon_ms", positive)?,
            cc,
            faults: o.opt("faults", list(fault_from_value))?.unwrap_or_default(),
            clients: o.opt("clients", |v, _| clients_from_value(v))?,
            system: o.or_defaults("system", |v, _| system_from_value(v, seed))?,
            control: o.or_defaults("control", |v, _| control_from_value(v))?,
            workload: o.or_defaults("workload", |v, _| workload_from_value(v, base_dir))?,
            controller: o.or("controller", |v, _| controller_from_value(v), ControllerSpec::None)?,
            record_optimum: o.or("record_optimum", boolean, false)?,
            trajectories: o.or("trajectories", boolean, false)?,
        })
    }

    /// The rules that tie one section's values to another's: the client
    /// pool must fit the system, Tay's rule reads `db_size`, and no
    /// transaction may access more distinct items than the database
    /// holds. Each section's own rules are checked as it is read.
    fn check(&self) -> Result<(), SpecError> {
        let named = |at: &'static str| move |e: String| SpecError::new(format!("{at}.{e}"));
        let db_size = self.system.db_size;
        if let Some(clients) = &self.clients {
            clients.check(&self.system).map_err(named("clients"))?;
        }
        if let ControllerSpec::Tay { k, min_bound, max_bound } = self.controller {
            TayRule::check(k, db_size, min_bound, max_bound).map_err(named("controller.tay"))?;
        }
        // What the access-set sampler cannot draw: more distinct items
        // than the database holds.
        let levels = self.workload.k.levels().unwrap_or_default();
        let k_max = levels.into_iter().fold(1.0, f64::max).round();
        if k_max > db_size as f64 {
            return Err(SpecError::new(format!(
                "workload.k reaches {k_max} distinct items per transaction but \
                 system.db_size is {db_size}"
            )));
        }
        Ok(())
    }
}
