//! The typed scenario spec and its strict JSON (de)serialization.
//!
//! A spec is one experiment: a workload trajectory, a system/control
//! configuration, a controller, and optionally a list of *variants* —
//! named override sets run against the same base (ablation axes). Every
//! unknown key is an error: a typo'd field must never silently keep its
//! default. Each section parses through [`Obj`] against a `const` key
//! table written next to its parser; the top-level table nests them
//! all, and is what `validate` resolves override paths against.
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

use alc_core::controller::{
    FixedBound, Hybrid as HybridCtrl, HybridParams, IncrementalSteps, IsParams, IyerRule,
    IyerRuleParams, LoadController, OuterParams, PaOuterParams, PaParams,
    ParabolaApproximation, RetryBudget, RetryBudgetParams, SelfTuningIs as SelfTuningIsCtrl,
    SelfTuningPa as SelfTuningPaCtrl, TayRule, Unlimited,
};
use alc_core::meta::{ConflictThreshold, GuardParams, MetaPolicy, RestartRate, ShadowScore};
use alc_tpsim::client::{ClientConfig, ClientStats, LatencyFeedback, RetryPolicy};
use alc_tpsim::config::{CcKind, SystemConfig};
use alc_tpsim::engine::{RunStats, Trajectories};
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

use crate::profile::{Profile, PROFILE};
use crate::value_util::Node::{self, Any, Fields, Keys as Sub, Scalar as Leaf};
use crate::value_util::{
    at_least_one, below_one, boolean, fields, fraction, list, non_negative, nonempty,
    normalize_arrival, normalize_dist, number, pairs, params, positive, positive_u32, single_key,
    strict, string, timed, u32_from, u64_from, unknown_key, weight, At, Keys, Obj,
};
use crate::SpecError;

/// One scenario: the declarative form the `scenario` binary runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario id — also the stem of every emitted CSV.
    pub name: String,
    /// One-line description (report title).
    pub description: String,
    /// Master seed of replication 0; later replications derive from it.
    pub seed: u64,
    /// Independent replications per variant (different derived seeds).
    pub replications: u32,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// Concurrency-control protocol in force at t = 0.
    pub cc: CcKind,
    /// Per-phase CC switches `(t_ms, protocol)` after t = 0 — at each
    /// boundary the engine drains in-flight transactions and swaps the
    /// protocol (the spec's `cc: {"phases": [[0, …], [t, …]]}` form).
    pub cc_phases: Vec<(f64, CcKind)>,
    /// Closed-loop protocol selection (the spec's `cc: {"adaptive": …}`
    /// form): a meta-policy picks the protocol online from the measured
    /// conflict state. Mutually exclusive with `cc_phases` by
    /// construction; `cc` holds `candidates[0]`.
    pub cc_adaptive: Option<AdaptiveCcSpec>,
    /// Scheduled station faults (CPU kill/restart windows).
    pub faults: Vec<FaultSpec>,
    /// Closed-loop client population replacing the patient terminals:
    /// timeouts, retry policies, abandonment, and latency→load feedback
    /// (the overload/metastability vocabulary). `None` keeps the
    /// paper's patient closed model byte-identical.
    pub clients: Option<ClientConfig>,
    /// Shallow overrides on [`SystemConfig`] (dist shorthands allowed;
    /// `seed` is set by the top-level field, not here).
    pub system: Vec<(String, Value)>,
    /// Shallow overrides on [`alc_tpsim::config::ControlConfig`].
    pub control: Vec<(String, Value)>,
    /// The time-varying workload.
    pub workload: WorkloadSpec,
    /// The load controller (or a static/baseline policy).
    pub controller: ControllerSpec,
    /// Record the analytic optimum trajectory `n_opt(t)`.
    pub record_optimum: bool,
    /// Write per-run trajectory CSVs.
    pub trajectories: bool,
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

/// Literal per-variant input cells: `(variant name, [(cell, text)])`.
pub type VariantInputs = Vec<(String, Vec<(String, String)>)>;

/// One scheduled station fault: `cpus_down` CPUs die at `at_ms` and come
/// back after the recovery window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Kill time, ms.
    pub at_ms: f64,
    /// How long the outage lasts.
    pub recovery: FaultRecovery,
    /// Servers killed (restored when the recovery window closes).
    pub cpus_down: u32,
}

/// How a fault's outage length is determined: a fixed window (the
/// spec's `duration` field) or a mean-time-to-repair distribution (the
/// `repair` field), sampled once per fault from the run's own
/// `fault_repair` RNG substream — per-replication deterministic, and
/// drawing it never perturbs any other stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRecovery {
    /// Fixed outage length, ms.
    Fixed(f64),
    /// Repair-time distribution, ms (sampled per fault per replication;
    /// negative samples clamp to an instant repair).
    Repair(alc_des::dist::Dist),
}

/// The spec/CSV name of a protocol — the short aliases the `cc` field
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

/// The `cc: {"adaptive": …}` section: candidate protocols, the policy
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
    /// Minimum time between switches, seconds (also from run start).
    pub min_dwell_s: f64,
    /// Post-switch settling window, seconds: observations inside it are
    /// discarded.
    pub cooldown_s: f64,
    /// Relative dead band / challenger margin (see `alc_core::meta`).
    pub hysteresis: f64,
}

/// The policy inside an adaptive `cc` section.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaPolicySpec {
    /// Threshold-with-hysteresis ladder on the EWMA'd conflict ratio.
    ConflictThreshold {
        /// Centre of the conflict-ratio band (conflicts per commit).
        threshold: f64,
        /// EWMA weight on each new observation, in (0, 1].
        ewma_weight: f64,
    },
    /// The same ladder on the EWMA'd abort (restart) ratio.
    RestartRate {
        /// Centre of the abort-ratio band, in (0, 1).
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
    /// Instantiates the candidate list and the boxed policy for one run.
    pub fn build(&self) -> (Vec<CcKind>, Box<dyn MetaPolicy>) {
        let guard = GuardParams {
            min_dwell_ms: self.min_dwell_s * 1000.0,
            cooldown_ms: self.cooldown_s * 1000.0,
            hysteresis: self.hysteresis,
        };
        let n = self.candidates.len();
        let policy: Box<dyn MetaPolicy> = match &self.policy {
            MetaPolicySpec::ConflictThreshold {
                threshold,
                ewma_weight,
            } => Box::new(ConflictThreshold::new(n, *threshold, *ewma_weight, guard)),
            MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            } => Box::new(RestartRate::new(n, *threshold, *ewma_weight, guard)),
            MetaPolicySpec::ShadowScore { ewma_weight } => {
                Box::new(ShadowScore::new(n, *ewma_weight, guard))
            }
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

/// One variant: a named set of overrides on the base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Variant label (row label, trajectory-file suffix).
    pub name: String,
    /// Path → value overrides applied for this variant.
    pub set: Vec<(String, Value)>,
    /// Additional path → value overrides applied under `--quick`, after
    /// the spec-level quick overrides.
    pub quick: Vec<(String, Value)>,
}

/// The workload section: one [`Profile`] per time-varying parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Items accessed per transaction, `k(t)`.
    pub k: Profile,
    /// Read-only fraction `q(t)`.
    pub query_frac: Profile,
    /// Updater write-access fraction `w(t)`.
    pub write_frac: Profile,
    /// Zipf access skew θ(t) (hot-spot drift).
    pub access_skew: Profile,
    /// Open-mode arrival-rate multiplier `a(t)` (surges, flash crowds).
    pub arrival_rate_factor: Profile,
    /// Closed-mode think-time multiplier `h(t)`.
    pub think_time_factor: Profile,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            k: Profile::Constant(8.0),
            query_frac: Profile::Constant(0.2),
            write_frac: Profile::Constant(0.25),
            access_skew: Profile::Constant(0.0),
            arrival_rate_factor: Profile::Constant(1.0),
            think_time_factor: Profile::Constant(1.0),
        }
    }
}

impl WorkloadSpec {
    /// Lowers every profile into the engine's [`WorkloadConfig`].
    pub fn lower(&self, base_dir: &std::path::Path) -> Result<WorkloadConfig, SpecError> {
        Ok(WorkloadConfig {
            k: self.k.lower(base_dir)?,
            query_frac: self.query_frac.lower(base_dir)?,
            write_frac: self.write_frac.lower(base_dir)?,
            access_skew: self.access_skew.lower(base_dir)?,
            arrival_rate_factor: self.arrival_rate_factor.lower(base_dir)?,
            think_time_factor: self.think_time_factor.lower(base_dir)?,
        })
    }
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
    /// PA with the §5 outer loop auto-tuning its forgetting factor α.
    SelfTuningPa {
        /// Inner PA parameters.
        pa: PaParams,
        /// Outer-loop tuning.
        outer: PaOuterParams,
    },
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
            ControllerSpec::SelfTuningPa { pa, outer } => {
                Some(Box::new(SelfTuningPaCtrl::new(*pa, *outer)))
            }
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

/// A raw-statistics column of the report table. Integer counters format
/// via `to_string`, continuous values via the shared `num` table format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatColumn {
    /// Commits per second.
    ThroughputPerS,
    /// Aborted / finished runs.
    AbortRatio,
    /// Mean response time, ms.
    MeanResponseMs,
    /// Time-averaged observed MPL.
    MeanMpl,
    /// Time-averaged gate bound.
    MeanBound,
    /// Committed transactions.
    Commits,
    /// Aborted runs.
    Aborts,
    /// Displacement victims.
    Displaced,
    /// Open-mode lost arrivals.
    Lost,
    /// Data conflicts per commit.
    ConflictsPerCommit,
    /// Mean CPU utilization.
    CpuUtilization,
}

impl StatColumn {
    /// Every column, for `scenario --help` listings.
    pub const ALL: [StatColumn; 11] = [
        StatColumn::ThroughputPerS,
        StatColumn::AbortRatio,
        StatColumn::MeanResponseMs,
        StatColumn::MeanMpl,
        StatColumn::MeanBound,
        StatColumn::Commits,
        StatColumn::Aborts,
        StatColumn::Displaced,
        StatColumn::Lost,
        StatColumn::ConflictsPerCommit,
        StatColumn::CpuUtilization,
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            StatColumn::ThroughputPerS => "throughput_per_s",
            StatColumn::AbortRatio => "abort_ratio",
            StatColumn::MeanResponseMs => "mean_response_ms",
            StatColumn::MeanMpl => "mean_mpl",
            StatColumn::MeanBound => "mean_bound",
            StatColumn::Commits => "commits",
            StatColumn::Aborts => "aborts",
            StatColumn::Displaced => "displaced",
            StatColumn::Lost => "lost",
            StatColumn::ConflictsPerCommit => "conflicts_per_commit",
            StatColumn::CpuUtilization => "cpu_utilization",
        }
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        StatColumn::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| SpecError::new(format!("unknown stat column `{s}`")))
    }

    /// Formats the column's value from run statistics.
    pub fn format(&self, stats: &RunStats) -> String {
        use crate::table::num;
        match self {
            StatColumn::ThroughputPerS => num(stats.throughput_per_sec),
            StatColumn::AbortRatio => num(stats.abort_ratio),
            StatColumn::MeanResponseMs => num(stats.mean_response_ms),
            StatColumn::MeanMpl => num(stats.mean_mpl),
            StatColumn::MeanBound => num(stats.mean_bound),
            StatColumn::Commits => stats.commits.to_string(),
            StatColumn::Aborts => stats.aborts.to_string(),
            StatColumn::Displaced => stats.displaced.to_string(),
            StatColumn::Lost => stats.lost.to_string(),
            StatColumn::ConflictsPerCommit => num(stats.conflicts_per_commit),
            StatColumn::CpuUtilization => num(stats.cpu_utilization),
        }
    }
}

/// A client-population column of the report table, rendered from the
/// run's [`ClientStats`] (`-` for runs without a `clients` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientColumn {
    /// Requests issued by the pool.
    Issued,
    /// Total attempts (first attempts + retries + hedges).
    Attempts,
    /// Retry attempts (including hedge duplicates).
    Retries,
    /// Requests abandoned after exhausting patience or budget.
    Abandoned,
    /// Attempt timeouts observed.
    Timeouts,
    /// Retry attempts bounced at the gate by retry shedding.
    ShedRetries,
    /// Committed requests per second — throughput net of wasted retries.
    GoodputPerS,
    /// Attempts per issued request (`1.0` = no retry traffic at all).
    RetryAmplification,
}

impl ClientColumn {
    /// Every column, for `scenario --help` listings.
    pub const ALL: [ClientColumn; 8] = [
        ClientColumn::Issued,
        ClientColumn::Attempts,
        ClientColumn::Retries,
        ClientColumn::Abandoned,
        ClientColumn::Timeouts,
        ClientColumn::ShedRetries,
        ClientColumn::GoodputPerS,
        ClientColumn::RetryAmplification,
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            ClientColumn::Issued => "issued",
            ClientColumn::Attempts => "attempts",
            ClientColumn::Retries => "retries",
            ClientColumn::Abandoned => "abandoned",
            ClientColumn::Timeouts => "timeouts",
            ClientColumn::ShedRetries => "shed_retries",
            ClientColumn::GoodputPerS => "goodput_per_s",
            ClientColumn::RetryAmplification => "retry_amplification",
        }
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        ClientColumn::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| SpecError::new(format!("unknown client column `{s}`")))
    }

    /// Formats the column from the run's client stats (`-` when the run
    /// had no client pool).
    pub fn format(&self, clients: Option<&ClientStats>, duration_ms: f64) -> String {
        use crate::table::num;
        let Some(s) = clients else {
            return "-".to_string();
        };
        match self {
            ClientColumn::Issued => s.issued.to_string(),
            ClientColumn::Attempts => s.attempts.to_string(),
            ClientColumn::Retries => s.retries.to_string(),
            ClientColumn::Abandoned => s.abandoned.to_string(),
            ClientColumn::Timeouts => s.timeouts.to_string(),
            ClientColumn::ShedRetries => s.shed.to_string(),
            ClientColumn::GoodputPerS => num(s.goodput_per_sec(duration_ms)),
            ClientColumn::RetryAmplification => num(s.retry_amplification()),
        }
    }
}

/// One report column: a raw stat, a trajectory-derived quantity, a
/// per-variant input cell, or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSpec {
    /// A raw-statistics column.
    Stat(StatColumn),
    /// A client-population column (needs a `clients` section).
    Client(ClientColumn),
    /// A column computed from the run's [`Trajectories`].
    Derived(DerivedColumn),
    /// The variant's literal cell from the spec's `inputs` map.
    Input(String),
    /// The same literal in every row (placeholder columns).
    Literal {
        /// Column header.
        header: String,
        /// Cell text.
        value: String,
    },
}

/// A column computed from the recorded trajectories after the run.
#[derive(Debug, Clone, PartialEq)]
pub enum DerivedColumn {
    /// Mean |bound − n_opt| over the last quarter of the samples — the
    /// post-jump tracking error of the ablation tables (requires
    /// `record_optimum`).
    PostJumpTrackingErr,
    /// Settling time: seconds from `after_frac · horizon` until the
    /// bound first enters the ±`band` relative band around the final
    /// optimum; renders `never` when it doesn't (requires
    /// `record_optimum`).
    SettlingTime {
        /// Column header (e.g. `response_s`).
        header: String,
        /// Fraction of the horizon the clock starts at (the jump time).
        after_frac: f64,
        /// Relative band around the final optimum.
        band: f64,
    },
    /// The per-interval conflicts-per-commit value at the sample where
    /// the interval throughput peaked — where on the conflict curve the
    /// run's best operating point sat.
    ConflictRatioAtPeak,
    /// Completed CC-protocol switches in the run (scheduled or
    /// policy-driven), from the switch-event trace.
    SwitchCount,
    /// Seconds the given protocol was in force over `[0, horizon]`,
    /// from the switch-event trace (drains count toward the *outgoing*
    /// protocol — it stays in force until the swap completes).
    TimeInProtocol {
        /// The protocol whose residence time is reported.
        cc: CcKind,
        /// Column header (default `time_in_protocol:<name>`).
        header: Option<String>,
    },
    /// Seconds from the last switch's completion until the interval
    /// throughput first enters the ±`band` relative band around its
    /// settled post-switch level (the mean of the final quarter of the
    /// post-switch samples); `never` when it doesn't, `-` for runs
    /// without a switch.
    PostSwitchSettling {
        /// Column header (e.g. `post_switch_settling_time_s`).
        header: String,
        /// Relative band around the settled level.
        band: f64,
    },
    /// Seconds from `after_ms` (a fault-repair time) until interval
    /// throughput *permanently* re-enters `band × baseline`, where the
    /// baseline is the mean throughput before `after_ms`. A metastable
    /// run — retry traffic holding the system down after repair —
    /// renders `never`.
    TimeToRecover {
        /// Column header (default `time_to_recover_s`).
        header: String,
        /// The recovery clock's start (the repair completion), ms.
        after_ms: f64,
        /// Fraction of the pre-fault baseline that counts as recovered.
        band: f64,
    },
}

impl ColumnSpec {
    /// The column's header text.
    pub fn header(&self) -> String {
        match self {
            ColumnSpec::Stat(c) => c.name().to_string(),
            ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr) => {
                "post_jump_tracking_err".to_string()
            }
            ColumnSpec::Derived(DerivedColumn::SettlingTime { header, .. }) => header.clone(),
            ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak) => {
                "conflict_ratio_at_peak".to_string()
            }
            ColumnSpec::Derived(DerivedColumn::SwitchCount) => "switch_count".to_string(),
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol { cc, header }) => header
                .clone()
                .unwrap_or_else(|| format!("time_in_protocol:{}", cc_spec_name(*cc))),
            ColumnSpec::Derived(DerivedColumn::PostSwitchSettling { header, .. }) => {
                header.clone()
            }
            ColumnSpec::Derived(DerivedColumn::TimeToRecover { header, .. }) => header.clone(),
            ColumnSpec::Client(c) => c.name().to_string(),
            ColumnSpec::Input(name) => name.clone(),
            ColumnSpec::Literal { header, .. } => header.clone(),
        }
    }

    /// Whether the runner must retain trajectories to render the column.
    pub fn needs_trajectories(&self) -> bool {
        matches!(self, ColumnSpec::Derived(_))
    }

    /// Whether the column needs the analytic-optimum trajectory.
    pub fn needs_optimum(&self) -> bool {
        matches!(
            self,
            ColumnSpec::Derived(
                DerivedColumn::PostJumpTrackingErr | DerivedColumn::SettlingTime { .. }
            )
        )
    }
}

impl DerivedColumn {
    /// Formats the column from a run's trajectories (`horizon_ms` anchors
    /// the settling clock and closes the last protocol-residence segment;
    /// `initial_cc` is the protocol in force at t = 0, which the switch
    /// trace alone cannot tell).
    pub fn format(&self, traj: &Trajectories, horizon_ms: f64, initial_cc: CcKind) -> String {
        use crate::table::num;
        match self {
            DerivedColumn::PostJumpTrackingErr => {
                // Same definition as the bespoke ablation harness: mean
                // absolute bound error vs the final optimum over the last
                // quarter of the samples.
                let pts = traj.bound.points();
                let start = pts.len() * 3 / 4;
                let opt = traj.optimum.last_value().unwrap_or(f64::NAN);
                let tail = &pts[start..];
                num(tail.iter().map(|&(_, b)| (b - opt).abs()).sum::<f64>()
                    / tail.len().max(1) as f64)
            }
            DerivedColumn::SettlingTime {
                after_frac, band, ..
            } => {
                let opt_after = traj.optimum.last_value().unwrap_or(f64::NAN);
                let after_ms = after_frac * horizon_ms;
                traj.bound
                    .points()
                    .iter()
                    .filter(|&&(t, _)| t >= after_ms)
                    .find(|&&(_, b)| (b - opt_after).abs() <= band * opt_after)
                    .map(|&(t, _)| (t - after_ms) / 1000.0)
                    .map_or("never".into(), num)
            }
            DerivedColumn::ConflictRatioAtPeak => {
                let tp = traj.throughput.points();
                let mut peak: Option<usize> = None;
                for (i, &(_, x)) in tp.iter().enumerate() {
                    if peak.is_none_or(|p| x > tp[p].1) {
                        peak = Some(i);
                    }
                }
                peak.and_then(|i| traj.conflict_ratio.points().get(i))
                    .map_or("-".into(), |&(_, v)| num(v))
            }
            DerivedColumn::SwitchCount => traj.switches.len().to_string(),
            DerivedColumn::TimeInProtocol { cc, .. } => {
                // Walk the residence segments: a protocol stays in force
                // until the swap that replaces it *completes*.
                let mut total = 0.0;
                let mut seg_start = 0.0;
                let mut current = initial_cc;
                for e in &traj.switches {
                    if current == *cc {
                        total += e.completed_at_ms - seg_start;
                    }
                    seg_start = e.completed_at_ms;
                    current = e.to;
                }
                if current == *cc {
                    total += horizon_ms - seg_start;
                }
                num(total / 1000.0)
            }
            DerivedColumn::PostSwitchSettling { band, .. } => {
                let Some(last) = traj.switches.last() else {
                    return "-".into();
                };
                let t0 = last.completed_at_ms;
                let pts: Vec<(f64, f64)> = traj
                    .throughput
                    .points()
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t >= t0)
                    .collect();
                if pts.is_empty() {
                    return "never".into();
                }
                // The settled level: mean of the final quarter of the
                // post-switch samples.
                let tail = &pts[pts.len() * 3 / 4..];
                let settled =
                    tail.iter().map(|&(_, x)| x).sum::<f64>() / tail.len().max(1) as f64;
                pts.iter()
                    .find(|&&(_, x)| (x - settled).abs() <= band * settled.abs())
                    .map(|&(t, _)| (t - t0) / 1000.0)
                    .map_or("never".into(), num)
            }
            DerivedColumn::TimeToRecover { after_ms, band, .. } => {
                let pts = traj.throughput.points();
                let before: Vec<f64> = pts
                    .iter()
                    .filter(|&&(t, _)| t <= *after_ms)
                    .map(|&(_, x)| x)
                    .collect();
                if before.is_empty() {
                    return "-".into();
                }
                let baseline = before.iter().sum::<f64>() / before.len() as f64;
                let floor = band * baseline;
                // Recovery must be *permanent*: the first post-repair
                // sample from which every later sample stays above the
                // floor. A dip back below (hysteresis) resets the clock,
                // so a metastable run that oscillates renders `never`.
                // The comparison uses a trailing 4-sample mean so a
                // single sparse interval of a healthy closed population
                // does not read as a relapse.
                let mut recovered_at = None;
                let mut window = std::collections::VecDeque::with_capacity(4);
                for &(t, x) in pts.iter().filter(|&&(t, _)| t >= *after_ms) {
                    if window.len() == 4 {
                        window.pop_front();
                    }
                    window.push_back(x);
                    let smoothed = window.iter().sum::<f64>() / window.len() as f64;
                    if smoothed >= floor {
                        recovered_at.get_or_insert(t);
                    } else {
                        recovered_at = None;
                    }
                }
                recovered_at
                    .map(|t| (t - after_ms) / 1000.0)
                    .map_or("never".into(), num)
            }
        }
    }
}

const SETTLING_TIME: Keys = &[("header", Leaf), ("after_frac", Leaf), ("band", Leaf)];
const TIME_IN_PROTOCOL: Keys = &[("cc", Leaf), ("header", Leaf)];
const POST_SWITCH_SETTLING: Keys = &[("header", Leaf), ("band", Leaf)];
const TIME_TO_RECOVER: Keys = &[("header", Leaf), ("after_ms", Leaf), ("band", Leaf)];
const LITERAL: Keys = &[("header", Leaf), ("value", Leaf)];
/// The column kinds written as single-key objects.
const COLUMN: Keys = &[
    ("settling_time_s", Sub(SETTLING_TIME)),
    ("time_in_protocol", Sub(TIME_IN_PROTOCOL)),
    ("post_switch_settling_time_s", Sub(POST_SWITCH_SETTLING)),
    ("time_to_recover_s", Sub(TIME_TO_RECOVER)),
    ("input", Leaf),
    ("literal", Sub(LITERAL)),
];

fn column_from_value(v: &Value) -> Result<ColumnSpec, SpecError> {
    if let Value::Str(s) = v {
        return Ok(match s.as_str() {
            "post_jump_tracking_err" => {
                ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr)
            }
            "conflict_ratio_at_peak" => ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak),
            "switch_count" => ColumnSpec::Derived(DerivedColumn::SwitchCount),
            // The bare name is the object form with every default.
            "post_switch_settling_time_s" => {
                return column_from_value(&Value::Map(vec![(s.clone(), Value::Map(Vec::new()))]));
            }
            name => {
                if let Ok(c) = StatColumn::parse(name) {
                    ColumnSpec::Stat(c)
                } else if let Ok(c) = ClientColumn::parse(name) {
                    ColumnSpec::Client(c)
                } else {
                    return Err(SpecError::new(format!("unknown column `{name}`")));
                }
            }
        });
    }
    let (tag, payload) = single_key(v, "columns[]", COLUMN)
        .map_err(|e| e.context("a column is a stat/derived/client name, or"))?;
    Ok(match tag {
        "settling_time_s" => {
            let mut o = Obj::open(payload, tag, SETTLING_TIME)?;
            let col = DerivedColumn::SettlingTime {
                header: o.opt("header", string)?.unwrap_or_else(|| tag.to_string()),
                after_frac: o.req("after_frac", below_one)?,
                band: o.opt("band", positive)?.unwrap_or(0.25),
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "time_in_protocol" => {
            let mut o = Obj::open(payload, tag, TIME_IN_PROTOCOL)?;
            let col = DerivedColumn::TimeInProtocol {
                cc: o.req("cc", |v, _| cc_from_value(v))?,
                header: o.opt("header", nonempty)?,
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "post_switch_settling_time_s" => {
            let mut o = Obj::open(payload, tag, POST_SWITCH_SETTLING)?;
            let col = DerivedColumn::PostSwitchSettling {
                header: o.opt("header", nonempty)?.unwrap_or_else(|| tag.to_string()),
                band: o.opt("band", positive)?.unwrap_or(0.25),
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "time_to_recover_s" => {
            let mut o = Obj::open(payload, tag, TIME_TO_RECOVER)?;
            let col = DerivedColumn::TimeToRecover {
                header: o.opt("header", nonempty)?.unwrap_or_else(|| tag.to_string()),
                after_ms: o.req("after_ms", positive)?,
                band: o.opt("band", positive)?.unwrap_or(0.7),
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "input" => ColumnSpec::Input(nonempty(payload, At("columns[]", tag))?),
        "literal" => {
            let mut o = Obj::open(payload, tag, LITERAL)?;
            let col = ColumnSpec::Literal {
                header: o.req("header", string)?,
                value: o.req("value", string)?,
            };
            o.finish(col)?
        }
        other => return Err(unknown_key("columns[]", other, COLUMN)),
    })
}

impl serde::Serialize for ColumnSpec {
    fn to_value(&self) -> Value {
        match self {
            ColumnSpec::Stat(c) => Value::Str(c.name().to_string()),
            ColumnSpec::Client(c) => Value::Str(c.name().to_string()),
            ColumnSpec::Derived(DerivedColumn::TimeToRecover {
                header,
                after_ms,
                band,
            }) => Value::Map(vec![(
                "time_to_recover_s".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("after_ms".into(), Value::Num(*after_ms)),
                    ("band".into(), Value::Num(*band)),
                ]),
            )]),
            ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr) => {
                Value::Str("post_jump_tracking_err".into())
            }
            ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak) => {
                Value::Str("conflict_ratio_at_peak".into())
            }
            ColumnSpec::Derived(DerivedColumn::SwitchCount) => Value::Str("switch_count".into()),
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol { cc, header }) => {
                let mut m = vec![(
                    "cc".to_string(),
                    Value::Str(cc_spec_name(*cc).to_string()),
                )];
                if let Some(h) = header {
                    m.push(("header".into(), Value::Str(h.clone())));
                }
                Value::Map(vec![("time_in_protocol".into(), Value::Map(m))])
            }
            ColumnSpec::Derived(DerivedColumn::PostSwitchSettling { header, band }) => {
                Value::Map(vec![(
                    "post_switch_settling_time_s".into(),
                    Value::Map(vec![
                        ("header".into(), Value::Str(header.clone())),
                        ("band".into(), Value::Num(*band)),
                    ]),
                )])
            }
            ColumnSpec::Derived(DerivedColumn::SettlingTime {
                header,
                after_frac,
                band,
            }) => Value::Map(vec![(
                "settling_time_s".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("after_frac".into(), Value::Num(*after_frac)),
                    ("band".into(), Value::Num(*band)),
                ]),
            )]),
            ColumnSpec::Input(name) => Value::Map(vec![(
                "input".into(),
                Value::Str(name.clone()),
            )]),
            ColumnSpec::Literal { header, value } => Value::Map(vec![(
                "literal".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("value".into(), Value::Str(value.clone())),
                ]),
            )]),
        }
    }
}

/// Default report columns.
fn default_columns() -> Vec<ColumnSpec> {
    [
        StatColumn::ThroughputPerS,
        StatColumn::AbortRatio,
        StatColumn::MeanResponseMs,
        StatColumn::MeanMpl,
        StatColumn::MeanBound,
    ]
    .into_iter()
    .map(ColumnSpec::Stat)
    .collect()
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses a CC protocol: canonical variant names plus the CLI aliases.
fn cc_from_value(v: &Value) -> Result<CcKind, SpecError> {
    if let Value::Str(s) = v {
        let alias = match s.as_str() {
            "certification" | "cert" | "occ" => Some(CcKind::Certification),
            "2pl" | "two-phase-locking" => Some(CcKind::TwoPhaseLocking),
            "timestamp-ordering" | "to" => Some(CcKind::TimestampOrdering),
            "wound-wait" => Some(CcKind::WoundWait),
            "wait-die" => Some(CcKind::WaitDie),
            "mvto" | "multiversion" => Some(CcKind::Multiversion),
            _ => None,
        };
        if let Some(cc) = alias {
            return Ok(cc);
        }
    }
    <CcKind as serde::Deserialize>::from_value(v)
        .map_err(|e| SpecError::new(format!("invalid `cc`: {e}")))
}

/// Parses a distribution (shorthands allowed) whose mean must be
/// positive: an outage length, a client's patience.
fn dist(v: &Value, at: At<'_>) -> Result<alc_des::dist::Dist, SpecError> {
    use alc_des::dist::Sample as _;
    let d: alc_des::dist::Dist = normalize_dist(v)
        .and_then(|norm| strict(&norm, "distribution"))
        .map_err(|e| e.context(at))?;
    if d.mean().is_nan() || d.mean() <= 0.0 {
        return Err(SpecError::new(format!(
            "`{at}` needs a distribution with positive mean"
        )));
    }
    Ok(d)
}

const FIXED: Keys = &[("bound", Leaf)];
const FIXED_ANALYTIC_OPTIMUM: Keys = &[("at_ms", Leaf), ("n_max", Leaf)];
const TAY: Keys = &[("k", Leaf), ("min_bound", Leaf), ("max_bound", Leaf)];
const HYBRID: Keys = &[
    ("is", Fields(fields::<IsParams>)),
    ("pa", Fields(fields::<PaParams>)),
    ("bootstrap_samples", Leaf),
    ("revert_after", Leaf),
    ("revert_window", Leaf),
];
const SELF_TUNING_IS: Keys = &[
    ("is", Fields(fields::<IsParams>)),
    ("outer", Fields(fields::<OuterParams>)),
];
const SELF_TUNING_PA: Keys = &[
    ("pa", Fields(fields::<PaParams>)),
    ("outer", Fields(fields::<PaOuterParams>)),
];
/// The controller kinds written as single-key objects.
const CONTROLLER: Keys = &[
    ("fixed", Sub(FIXED)),
    ("fixed_analytic_optimum", Sub(FIXED_ANALYTIC_OPTIMUM)),
    ("is", Fields(fields::<IsParams>)),
    ("pa", Fields(fields::<PaParams>)),
    ("iyer", Fields(fields::<IyerRuleParams>)),
    ("retry_budget", Fields(fields::<RetryBudgetParams>)),
    ("tay", Sub(TAY)),
    ("hybrid", Sub(HYBRID)),
    ("self_tuning_is", Sub(SELF_TUNING_IS)),
    ("self_tuning_pa", Sub(SELF_TUNING_PA)),
];

fn controller_from_value(v: &Value) -> Result<ControllerSpec, SpecError> {
    if let Value::Str(s) = v {
        return match s.as_str() {
            "none" => Ok(ControllerSpec::None),
            "unlimited" => Ok(ControllerSpec::Unlimited),
            other => Err(SpecError::new(format!(
                "unknown controller `{other}` (want none/unlimited or an object)"
            ))),
        };
    }
    let (tag, payload) = single_key(v, "controller", CONTROLLER)?;
    let at = At("controller", tag);
    // The checks below mirror the constructors' invariants as spec
    // errors so a bad spec fails at parse time, not as a runner panic.
    Ok(match tag {
        "fixed" => {
            let mut o = Obj::open(payload, tag, FIXED)?;
            let bound = o.req("bound", u32_from)?;
            o.finish(ControllerSpec::Fixed { bound })?
        }
        "fixed_analytic_optimum" => {
            let mut o = Obj::open(payload, tag, FIXED_ANALYTIC_OPTIMUM)?;
            let c = ControllerSpec::FixedAnalyticOptimum {
                at_ms: o.opt("at_ms", number)?.unwrap_or(0.0),
                n_max: o.req("n_max", u32_from)?,
            };
            o.finish(c)?
        }
        "is" => ControllerSpec::Is(params(payload, at)?),
        "pa" => ControllerSpec::Pa(params(payload, at)?),
        "self_tuning_is" => {
            let mut o = Obj::open(payload, tag, SELF_TUNING_IS)?;
            let is = o.opt("is", params)?.unwrap_or_default();
            let outer: OuterParams = o.opt("outer", params)?.unwrap_or_default();
            o.finish(())?;
            if outer.window < 2
                || outer.target_step_fraction <= 0.0
                || outer.adjust_factor <= 1.0
                || outer.beta_min <= 0.0
                || outer.beta_min > outer.beta_max
            {
                return Err(SpecError::new("invalid `self_tuning_is.outer` parameters"));
            }
            ControllerSpec::SelfTuningIs { is, outer }
        }
        "self_tuning_pa" => {
            let mut o = Obj::open(payload, tag, SELF_TUNING_PA)?;
            let pa = o.opt("pa", params)?.unwrap_or_default();
            let outer: PaOuterParams = o.opt("outer", params)?.unwrap_or_default();
            o.finish(())?;
            if outer.window < 2
                || outer.fast_weight <= outer.slow_weight
                || outer.slow_weight <= 0.0
                || outer.fast_weight > 1.0
                || outer.shock_factor <= 1.0
                || outer.shock_confirm < 1
                || outer.lengthen_below <= 0.0
                || outer.lengthen_below >= 1.0
                || outer.adjust_factor <= 1.0
                || outer.alpha_min <= 0.0
                || outer.alpha_min > outer.alpha_max
                || outer.alpha_max >= 1.0
            {
                return Err(SpecError::new("invalid `self_tuning_pa.outer` parameters"));
            }
            ControllerSpec::SelfTuningPa { pa, outer }
        }
        "hybrid" => {
            let mut o = Obj::open(payload, tag, HYBRID)?;
            let d = HybridParams::default();
            let p = HybridParams {
                is: o.opt("is", params)?.unwrap_or(d.is),
                pa: o.opt("pa", params)?.unwrap_or(d.pa),
                bootstrap_samples: o
                    .opt("bootstrap_samples", u64_from)?
                    .unwrap_or(d.bootstrap_samples),
                revert_after: o.opt("revert_after", u32_from)?.unwrap_or(d.revert_after),
                revert_window: o.opt("revert_window", u32_from)?.unwrap_or(d.revert_window),
            };
            o.finish(())?;
            if (p.is.min_bound, p.is.max_bound) != (p.pa.min_bound, p.pa.max_bound) {
                return Err(SpecError::new(
                    "`hybrid` needs matching IS/PA [min_bound, max_bound] ranges",
                ));
            }
            if p.bootstrap_samples < 3
                || p.revert_after < 1
                || !(p.revert_after..=64).contains(&p.revert_window)
            {
                return Err(SpecError::new("invalid `hybrid` phase parameters"));
            }
            ControllerSpec::Hybrid(p)
        }
        "iyer" => ControllerSpec::Iyer(params(payload, at)?),
        "retry_budget" => {
            let p: RetryBudgetParams = params(payload, at)?;
            if p.min_bound < 1
                || p.min_bound > p.max_bound
                || p.budget < 0.0
                || p.burst < 0.0
                || !(p.decrease > 0.0 && p.decrease < 1.0)
                || !(0.0..=1.0).contains(&p.headroom)
            {
                return Err(SpecError::new("invalid `retry_budget` parameters"));
            }
            ControllerSpec::RetryBudget(p)
        }
        "tay" => {
            let mut o = Obj::open(payload, tag, TAY)?;
            let c = ControllerSpec::Tay {
                k: o.req("k", u32_from)?,
                min_bound: o.opt("min_bound", u32_from)?.unwrap_or(1),
                max_bound: o.req("max_bound", u32_from)?,
            };
            o.finish(c)?
        }
        other => return Err(unknown_key("controller", other, CONTROLLER)),
    })
}

const THRESHOLD_POLICY: Keys = &[("threshold", Leaf), ("ewma_weight", Leaf)];
const SHADOW_SCORE: Keys = &[("ewma_weight", Leaf)];
/// The adaptive-`cc` policies, each a single-key object.
const POLICY: Keys = &[
    ("conflict_threshold", Sub(THRESHOLD_POLICY)),
    ("restart_rate", Sub(THRESHOLD_POLICY)),
    ("shadow_score", Sub(SHADOW_SCORE)),
];
const ADAPTIVE: Keys = &[
    ("candidates", Any),
    ("policy", Sub(POLICY)),
    ("min_dwell_s", Leaf),
    ("cooldown_s", Leaf),
    ("hysteresis", Leaf),
];
/// The two object forms of the `cc` field.
const CC: Keys = &[("phases", Any), ("adaptive", Sub(ADAPTIVE))];

/// Parses the policy object of an adaptive `cc` section.
fn meta_policy_from_value(v: &Value) -> Result<MetaPolicySpec, SpecError> {
    let (tag, payload) = single_key(v, "cc.adaptive.policy", POLICY)?;
    let ewma = |o: &mut Obj<'_>| o.opt("ewma_weight", weight).map(|w| w.unwrap_or(0.3));
    match tag {
        "shadow_score" => {
            let mut o = Obj::open(payload, tag, SHADOW_SCORE)?;
            let ewma_weight = ewma(&mut o)?;
            o.finish(MetaPolicySpec::ShadowScore { ewma_weight })
        }
        "conflict_threshold" | "restart_rate" => {
            let mut o = Obj::open(payload, tag, THRESHOLD_POLICY)?;
            let threshold = o.req("threshold", positive)?;
            let ewma_weight = ewma(&mut o)?;
            o.finish(())?;
            if tag == "conflict_threshold" {
                return Ok(MetaPolicySpec::ConflictThreshold {
                    threshold,
                    ewma_weight,
                });
            }
            if threshold >= 1.0 {
                return Err(SpecError::new(
                    "`restart_rate.threshold` is an abort ratio and must be < 1",
                ));
            }
            Ok(MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            })
        }
        other => Err(unknown_key("cc.adaptive.policy", other, POLICY)),
    }
}

/// Parses the `{"adaptive": …}` payload of the `cc` field.
fn adaptive_from_value(v: &Value) -> Result<AdaptiveCcSpec, SpecError> {
    let mut o = Obj::open(v, "cc.adaptive", ADAPTIVE)?;
    let adaptive = AdaptiveCcSpec {
        candidates: o.opt("candidates", list(cc_from_value))?.unwrap_or_default(),
        policy: o.req("policy", |v, _| meta_policy_from_value(v))?,
        min_dwell_s: o.req("min_dwell_s", non_negative)?,
        cooldown_s: o.opt("cooldown_s", non_negative)?.unwrap_or(0.0),
        hysteresis: o.opt("hysteresis", below_one)?.unwrap_or(0.25),
    };
    o.finish(())?;
    if adaptive.candidates.len() < 2 {
        return Err(SpecError::new(
            "`cc.adaptive.candidates` needs at least two protocols",
        ));
    }
    for (i, c) in adaptive.candidates.iter().enumerate() {
        if adaptive.candidates[..i].contains(c) {
            return Err(SpecError::new(format!(
                "duplicate adaptive candidate `{}`",
                cc_spec_name(*c)
            )));
        }
    }
    Ok(adaptive)
}

/// The parsed `cc` field: initial protocol, scheduled phase switches,
/// and the adaptive section (at most one of the latter two is
/// populated).
type CcField = (CcKind, Vec<(f64, CcKind)>, Option<AdaptiveCcSpec>);

/// Parses the `cc` field: a plain protocol,
/// `{"phases": [[t_ms, cc], …]}` (ascending, first phase at 0) for
/// scheduled per-phase switching, or `{"adaptive": …}` for closed-loop
/// protocol selection.
fn cc_field_from_value(v: &Value) -> Result<CcField, SpecError> {
    if let Some([(tag, payload)]) = v.as_map() {
        if tag == "adaptive" {
            let adaptive = adaptive_from_value(payload)?;
            return Ok((adaptive.candidates[0], Vec::new(), Some(adaptive)));
        }
        if tag == "phases" {
            let mut phases = timed(payload, "cc.phases", cc_from_value)?;
            if phases.is_empty() {
                return Err(SpecError::new("`cc.phases` must not be empty"));
            }
            if phases[0].0 != 0.0 {
                return Err(SpecError::new("the first `cc.phases` entry must start at 0"));
            }
            for w in phases.windows(2) {
                if w[1].0 <= w[0].0 {
                    return Err(SpecError::new("`cc.phases` times must be strictly ascending"));
                }
            }
            let initial = phases[0].1;
            return Ok((initial, phases.split_off(1), None));
        }
    }
    Ok((cc_from_value(v)?, Vec::new(), None))
}

const FAULT: Keys = &[
    ("at", Leaf),
    ("duration", Leaf),
    ("repair", Any),
    ("cpus_down", Leaf),
];

fn fault_from_value(v: &Value) -> Result<FaultSpec, SpecError> {
    let mut o = Obj::open(v, "faults[]", FAULT)?;
    let at_ms = o.req("at", non_negative)?;
    let duration = o.opt("duration", positive)?;
    let repair = o.opt("repair", dist)?;
    let cpus_down = o.req("cpus_down", positive_u32)?;
    o.finish(())?;
    let recovery = match (duration, repair) {
        (Some(d), None) => FaultRecovery::Fixed(d),
        (None, Some(dist)) => FaultRecovery::Repair(dist),
        (Some(_), Some(_)) => {
            return Err(SpecError::new(
                "`faults[]` takes `duration` or `repair`, not both",
            ));
        }
        (None, None) => {
            return Err(SpecError::new("`faults[]` needs `duration` or `repair`"));
        }
    };
    Ok(FaultSpec {
        at_ms,
        recovery,
        cpus_down,
    })
}

const BACKOFF: Keys = &[
    ("base_ms", Leaf),
    ("factor", Leaf),
    ("max_ms", Leaf),
    ("jitter", Leaf),
];
const BUDGET: Keys = &[("per_commit", Leaf), ("burst", Leaf), ("delay_ms", Leaf)];
const HEDGED: Keys = &[("delay_ms", Leaf)];
/// The retry policies, each a single-key object.
const RETRY: Keys = &[
    ("backoff", Sub(BACKOFF)),
    ("budget", Sub(BUDGET)),
    ("hedged", Sub(HEDGED)),
];
const FEEDBACK: Keys = &[("gain", Leaf), ("reference_ms", Leaf), ("weight", Leaf)];
const CLIENTS: Keys = &[
    ("population", Leaf),
    ("timeout", Any),
    ("max_retries", Leaf),
    ("retry", Sub(RETRY)),
    ("shed_retries", Leaf),
    ("feedback", Sub(FEEDBACK)),
];

/// Parses the retry policy of a `clients` section; an empty `backoff`
/// is [`RetryPolicy::default`].
fn retry_policy_from_value(v: &Value) -> Result<RetryPolicy, SpecError> {
    let (tag, payload) = single_key(v, "clients.retry", RETRY)?;
    match tag {
        "backoff" => {
            let mut o = Obj::open(payload, tag, BACKOFF)?;
            let policy = RetryPolicy::Backoff {
                base_ms: o.opt("base_ms", positive)?.unwrap_or(100.0),
                factor: o.opt("factor", at_least_one)?.unwrap_or(2.0),
                max_ms: o.opt("max_ms", positive)?.unwrap_or(5000.0),
                jitter: o.opt("jitter", fraction)?.unwrap_or(0.5),
            };
            o.finish(policy)
        }
        "budget" => {
            let mut o = Obj::open(payload, tag, BUDGET)?;
            let policy = RetryPolicy::Budget {
                per_commit: o.opt("per_commit", non_negative)?.unwrap_or(0.1),
                burst: o.opt("burst", positive)?.unwrap_or(10.0),
                delay_ms: o.opt("delay_ms", positive)?.unwrap_or(100.0),
            };
            o.finish(policy)
        }
        "hedged" => {
            let mut o = Obj::open(payload, tag, HEDGED)?;
            let delay_ms = o.req("delay_ms", positive)?;
            o.finish(RetryPolicy::Hedged { delay_ms })
        }
        other => Err(unknown_key("clients.retry", other, RETRY)),
    }
}

/// Parses the latency→load feedback of a `clients` section.
fn feedback_from_value(v: &Value) -> Result<LatencyFeedback, SpecError> {
    let mut o = Obj::open(v, "clients.feedback", FEEDBACK)?;
    let d = LatencyFeedback::default();
    let feedback = LatencyFeedback {
        gain: o.opt("gain", non_negative)?.unwrap_or(d.gain),
        reference_ms: o.opt("reference_ms", positive)?.unwrap_or(d.reference_ms),
        weight: o.opt("weight", weight)?.unwrap_or(d.weight),
    };
    o.finish(feedback)
}

/// Parses the `clients` section into the engine's [`ClientConfig`].
fn clients_from_value(v: &Value) -> Result<ClientConfig, SpecError> {
    let mut o = Obj::open(v, "clients", CLIENTS)?;
    let clients = ClientConfig {
        population: o.req("population", positive_u32)?,
        timeout: o.req("timeout", dist)?,
        max_retries: o.opt("max_retries", u32_from)?.unwrap_or(3),
        retry: o
            .opt("retry", |v, _| retry_policy_from_value(v))?
            .unwrap_or_default(),
        shed_retries: o.opt("shed_retries", boolean)?.unwrap_or(false),
        feedback: o
            .opt("feedback", |v, _| feedback_from_value(v))?
            .unwrap_or_default(),
    };
    o.finish(clients)
}

/// Serializes a [`ClientConfig`] back into the spec's `clients` form.
fn clients_to_value(c: &ClientConfig) -> Value {
    let retry = match c.retry {
        RetryPolicy::Backoff {
            base_ms,
            factor,
            max_ms,
            jitter,
        } => Value::Map(vec![(
            "backoff".into(),
            Value::Map(vec![
                ("base_ms".into(), Value::Num(base_ms)),
                ("factor".into(), Value::Num(factor)),
                ("max_ms".into(), Value::Num(max_ms)),
                ("jitter".into(), Value::Num(jitter)),
            ]),
        )]),
        RetryPolicy::Budget {
            per_commit,
            burst,
            delay_ms,
        } => Value::Map(vec![(
            "budget".into(),
            Value::Map(vec![
                ("per_commit".into(), Value::Num(per_commit)),
                ("burst".into(), Value::Num(burst)),
                ("delay_ms".into(), Value::Num(delay_ms)),
            ]),
        )]),
        RetryPolicy::Hedged { delay_ms } => Value::Map(vec![(
            "hedged".into(),
            Value::Map(vec![("delay_ms".into(), Value::Num(delay_ms))]),
        )]),
    };
    Value::Map(vec![
        ("population".into(), Value::U64(u64::from(c.population))),
        ("timeout".into(), serde::Serialize::to_value(&c.timeout)),
        ("max_retries".into(), Value::U64(u64::from(c.max_retries))),
        ("retry".into(), retry),
        ("shed_retries".into(), Value::Bool(c.shed_retries)),
        (
            "feedback".into(),
            Value::Map(vec![
                ("gain".into(), Value::Num(c.feedback.gain)),
                ("reference_ms".into(), Value::Num(c.feedback.reference_ms)),
                ("weight".into(), Value::Num(c.feedback.weight)),
            ]),
        ),
    ])
}

/// Characters legal in labels that land in output file names.
fn filename_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}


const AXIS: Keys = &[
    ("header", Leaf),
    ("path", Leaf),
    ("values", Any),
    ("labels", Any),
];
const PIVOT: Keys = &[("stat", Leaf), ("prefix", Leaf)];
const SWEEP: Keys = &[("axes", Any), ("pivot", Sub(PIVOT))];

fn sweep_axis_from_value(v: &Value) -> Result<SweepAxis, SpecError> {
    let mut o = Obj::open(v, "sweep.axes[]", AXIS)?;
    let axis = SweepAxis {
        header: o.req("header", nonempty)?,
        path: o.req("path", nonempty)?,
        values: o.req("values", list(|v| Ok(v.clone())))?,
        labels: o.opt(
            "labels",
            list(|l| match l {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(SpecError::new("`sweep.axes[].labels` must be strings")),
            }),
        )?,
    };
    o.finish(())?;
    if axis.values.is_empty() {
        return Err(SpecError::new("`sweep.axes[].values` must not be empty"));
    }
    if let Some(labels) = &axis.labels {
        if labels.len() != axis.values.len() {
            return Err(SpecError::new(format!(
                "axis `{}`: {} labels for {} values",
                axis.header,
                labels.len(),
                axis.values.len()
            )));
        }
    }
    // Labels name output files and must identify cells uniquely: a
    // duplicate label would collapse two grid cells in the report.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..axis.values.len() {
        let label = axis.label(i);
        if !filename_safe(&label) {
            return Err(SpecError::new(format!(
                "axis `{}` label `{label}` must be non-empty [A-Za-z0-9._-] \
                 (give explicit `labels` for exotic values)",
                axis.header
            )));
        }
        if !seen.insert(label.clone()) {
            return Err(SpecError::new(format!(
                "axis `{}` has duplicate label `{label}`",
                axis.header
            )));
        }
    }
    Ok(axis)
}

fn sweep_from_value(v: &Value) -> Result<SweepSpec, SpecError> {
    let mut o = Obj::open(v, "sweep", SWEEP)?;
    let sweep = SweepSpec {
        axes: o
            .opt("axes", list(sweep_axis_from_value))?
            .unwrap_or_default(),
        pivot: o.opt("pivot", |v, _| {
            let mut o = Obj::open(v, "sweep.pivot", PIVOT)?;
            let pivot = PivotSpec {
                stat: o.req("stat", |v, at| StatColumn::parse(&string(v, at)?))?,
                prefix: o.opt("prefix", string)?.unwrap_or_default(),
            };
            o.finish(pivot)
        })?,
    };
    o.finish(())?;
    if sweep.axes.is_empty() {
        return Err(SpecError::new("`sweep` needs at least one axis"));
    }
    if sweep.pivot.is_some() && sweep.axes.len() < 2 {
        return Err(SpecError::new(
            "a pivoted sweep needs ≥ 2 axes (rows + the pivoted columns)",
        ));
    }
    let mut headers = std::collections::BTreeSet::new();
    for a in &sweep.axes {
        if !headers.insert(a.header.as_str()) {
            return Err(SpecError::new(format!("duplicate axis header `{}`", a.header)));
        }
    }
    Ok(sweep)
}

/// Parses `inputs`: variant name → cell name → literal cell text.
fn inputs_from_value(v: &Value, at: At<'_>) -> Result<VariantInputs, SpecError> {
    let mut out = Vec::new();
    for (variant, cells) in pairs(v, at)? {
        let at = At("inputs", &variant);
        let mut row = Vec::new();
        for (col, val) in pairs(&cells, at)? {
            match val {
                Value::Str(s) => row.push((col, s)),
                _ => {
                    return Err(SpecError::new(format!(
                        "`{at}.{col}` must be a string (the literal cell text)"
                    )));
                }
            }
        }
        out.push((variant, row));
    }
    Ok(out)
}

const WORKLOAD: Keys = &[
    ("k", Sub(PROFILE)),
    ("query_frac", Sub(PROFILE)),
    ("write_frac", Sub(PROFILE)),
    ("access_skew", Sub(PROFILE)),
    ("arrival_rate_factor", Sub(PROFILE)),
    ("think_time_factor", Sub(PROFILE)),
];

fn workload_from_value(v: &Value) -> Result<WorkloadSpec, SpecError> {
    let profile = |v: &Value, at: At<'_>| {
        <Profile as serde::Deserialize>::from_value(v)
            .map_err(|e| SpecError::new(format!("`{at}`: {e}")))
    };
    let mut o = Obj::open(v, "workload", WORKLOAD)?;
    let d = WorkloadSpec::default();
    let workload = WorkloadSpec {
        k: o.opt("k", profile)?.unwrap_or(d.k),
        query_frac: o.opt("query_frac", profile)?.unwrap_or(d.query_frac),
        write_frac: o.opt("write_frac", profile)?.unwrap_or(d.write_frac),
        access_skew: o.opt("access_skew", profile)?.unwrap_or(d.access_skew),
        arrival_rate_factor: o
            .opt("arrival_rate_factor", profile)?
            .unwrap_or(d.arrival_rate_factor),
        think_time_factor: o
            .opt("think_time_factor", profile)?
            .unwrap_or(d.think_time_factor),
    };
    o.finish(workload)
}

const VARIANT: Keys = &[("name", Leaf), ("set", Any), ("quick", Any)];

fn variant_from_value(v: &Value) -> Result<VariantSpec, SpecError> {
    let mut o = Obj::open(v, "variants[]", VARIANT)?;
    let variant = VariantSpec {
        name: o.req("name", string)?,
        set: o.opt("set", pairs)?.unwrap_or_default(),
        quick: o.opt("quick", pairs)?.unwrap_or_default(),
    };
    o.finish(variant)
}

/// The live `system` keys: [`SystemConfig`]'s own fields — bar `seed`,
/// which the top-level field owns — and the derived load knob, a leaf.
fn system_fields() -> Vec<(String, Node<'static>)> {
    let mut ks = fields::<SystemConfig>();
    ks.retain(|(k, _)| k != "seed");
    ks.push(("offered_load_per_s".to_string(), Leaf));
    ks
}

/// Normalizes the `system` override map: dist-valued fields accept the
/// shorthands, `arrival` accepts its shorthands, and `seed` is rejected
/// (the top-level `seed` field owns it). `offered_load_per_s` is a
/// *derived* quantity: a value `λ` lowers to an open Poisson arrival
/// stream with interarrival mean `1000/λ` ms at parse time, so load
/// grids (sweep axes, `--set`, quick overrides) read in the paper's
/// tx/s units instead of interarrival means.
fn system_overrides_from_value(
    v: &Value,
    at: At<'_>,
) -> Result<Vec<(String, Value)>, SpecError> {
    const DIST_FIELDS: [&str; 5] = [
        "cpu_phase",
        "disk_access",
        "disk_init_commit",
        "think",
        "restart_delay",
    ];
    let mut out: Vec<(String, Value)> = Vec::new();
    let mut arrival_sources = 0u32;
    for (k, val) in pairs(v, at)? {
        let (key, norm) = if DIST_FIELDS.contains(&k.as_str()) {
            let norm = normalize_dist(&val)
                .map_err(|e| SpecError::new(format!("system `{k}`: {e}")))?;
            (k, norm)
        } else if k == "arrival" {
            arrival_sources += 1;
            (k, normalize_arrival(&val)?)
        } else if k == "offered_load_per_s" {
            arrival_sources += 1;
            let rate = positive(&val, At("system", &k))?;
            let open = Value::Map(vec![("open_rate_per_s".into(), Value::Num(rate))]);
            ("arrival".to_string(), normalize_arrival(&open)?)
        } else if k == "seed" {
            return Err(SpecError::new(
                "set the top-level `seed` field, not `system.seed`",
            ));
        } else {
            (k, val)
        };
        out.push((key, norm));
    }
    if arrival_sources > 1 {
        return Err(SpecError::new(
            "set `system.arrival` or `system.offered_load_per_s`, not both",
        ));
    }
    Ok(out)
}

/// The top-level keys of a spec. `inputs` is keyed by the spec's own
/// variant and cell names, which `validate` fills in.
pub(crate) const SPEC: Keys = &[
    ("name", Leaf),
    ("description", Leaf),
    ("seed", Leaf),
    ("replications", Leaf),
    ("horizon_ms", Leaf),
    ("cc", Sub(CC)),
    ("faults", Any),
    ("clients", Sub(CLIENTS)),
    ("system", Fields(system_fields)),
    ("control", Fields(fields::<alc_tpsim::config::ControlConfig>)),
    ("workload", Sub(WORKLOAD)),
    ("controller", Sub(CONTROLLER)),
    ("record_optimum", Leaf),
    ("trajectories", Leaf),
    ("label_header", Leaf),
    ("columns", Any),
    ("variants", Any),
    ("sweep", Sub(SWEEP)),
    ("inputs", Any),
    ("label_from", Leaf),
    ("quick", Any),
];

impl ScenarioSpec {
    /// Strictly parses a spec from its JSON tree. Unknown and repeated
    /// keys anywhere are errors.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let mut o = Obj::open(v, "spec", SPEC)?;
        let (cc, cc_phases, cc_adaptive) = o
            .opt("cc", |v, _| cc_field_from_value(v))?
            .unwrap_or((CcKind::Certification, Vec::new(), None));
        let spec = ScenarioSpec {
            name: o.req("name", string)?,
            description: o.opt("description", string)?.unwrap_or_default(),
            seed: o
                .opt("seed", u64_from)?
                .unwrap_or(SystemConfig::default().seed),
            replications: o.opt("replications", positive_u32)?.unwrap_or(1),
            horizon_ms: o.req("horizon_ms", positive)?,
            cc,
            cc_phases,
            cc_adaptive,
            faults: o.opt("faults", list(fault_from_value))?.unwrap_or_default(),
            clients: o.opt("clients", |v, _| clients_from_value(v))?,
            system: o
                .opt("system", system_overrides_from_value)?
                .unwrap_or_default(),
            control: o.opt("control", pairs)?.unwrap_or_default(),
            workload: o
                .opt("workload", |v, _| workload_from_value(v))?
                .unwrap_or_default(),
            controller: o
                .opt("controller", |v, _| controller_from_value(v))?
                .unwrap_or(ControllerSpec::None),
            record_optimum: o.opt("record_optimum", boolean)?.unwrap_or(false),
            trajectories: o.opt("trajectories", boolean)?.unwrap_or(false),
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
            if sweep.pivot.is_some() && spec.replications > 1 {
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
        if spec.columns.iter().any(ColumnSpec::needs_optimum) && !spec.record_optimum {
            return Err(SpecError::new(
                "tracking-error columns need `record_optimum: true` (they compare the \
                 bound against the analytic optimum trajectory)",
            ));
        }
        if spec.clients.is_none()
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
        // Eagerly dry-run the override merges so a typo'd system/control
        // key fails at parse time, not only at compile time.
        let _: SystemConfig = crate::value_util::from_overrides(&spec.system, "system")?;
        let _: alc_tpsim::config::ControlConfig =
            crate::value_util::from_overrides(&spec.control, "control")?;
        // Statically resolve every stored override path (variant
        // set/quick, spec quick, sweep axes) against the schema, so a
        // dead path dies at `scenario validate` time — even the quick
        // paths a full-scale compile would never apply.
        crate::validate::check_override_paths(&spec)?;
        Ok(spec)
    }
}

impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let pairs_value =
            |pairs: &[(String, Value)]| Value::Map(pairs.to_vec());
        let cc_value = if let Some(ad) = &self.cc_adaptive {
            Value::Map(vec![("adaptive".into(), ad.to_value())])
        } else if self.cc_phases.is_empty() {
            self.cc.to_value()
        } else {
            let mut phases = vec![Value::Seq(vec![Value::Num(0.0), self.cc.to_value()])];
            phases.extend(
                self.cc_phases
                    .iter()
                    .map(|(t, c)| Value::Seq(vec![Value::Num(*t), c.to_value()])),
            );
            Value::Map(vec![("phases".into(), Value::Seq(phases))])
        };
        let mut m: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("description".into(), Value::Str(self.description.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("replications".into(), Value::U64(u64::from(self.replications))),
            ("horizon_ms".into(), Value::Num(self.horizon_ms)),
            ("cc".into(), cc_value),
            ("system".into(), pairs_value(&self.system)),
            ("control".into(), pairs_value(&self.control)),
            ("workload".into(), self.workload.to_value()),
            ("controller".into(), self.controller.to_value()),
            ("record_optimum".into(), Value::Bool(self.record_optimum)),
            ("trajectories".into(), Value::Bool(self.trajectories)),
            ("label_header".into(), Value::Str(self.label_header.clone())),
            (
                "columns".into(),
                Value::Seq(self.columns.iter().map(|c| c.to_value()).collect()),
            ),
        ];
        if !self.faults.is_empty() {
            m.push((
                "faults".into(),
                Value::Seq(
                    self.faults
                        .iter()
                        .map(|f| {
                            let recovery = match &f.recovery {
                                FaultRecovery::Fixed(d) => ("duration".into(), Value::Num(*d)),
                                FaultRecovery::Repair(dist) => ("repair".into(), dist.to_value()),
                            };
                            Value::Map(vec![
                                ("at".into(), Value::Num(f.at_ms)),
                                recovery,
                                ("cpus_down".into(), Value::U64(u64::from(f.cpus_down))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(c) = &self.clients {
            m.push(("clients".into(), clients_to_value(c)));
        }
        if !self.variants.is_empty() {
            m.push((
                "variants".into(),
                Value::Seq(self.variants.iter().map(|v| v.to_value()).collect()),
            ));
        }
        if let Some(sweep) = &self.sweep {
            let axes = Value::Seq(
                sweep
                    .axes
                    .iter()
                    .map(|a| {
                        let mut am = vec![
                            ("header".to_string(), Value::Str(a.header.clone())),
                            ("path".to_string(), Value::Str(a.path.clone())),
                            ("values".to_string(), Value::Seq(a.values.clone())),
                        ];
                        if let Some(labels) = &a.labels {
                            am.push((
                                "labels".to_string(),
                                Value::Seq(
                                    labels.iter().map(|l| Value::Str(l.clone())).collect(),
                                ),
                            ));
                        }
                        Value::Map(am)
                    })
                    .collect(),
            );
            let mut sm = vec![("axes".to_string(), axes)];
            if let Some(p) = &sweep.pivot {
                sm.push((
                    "pivot".to_string(),
                    Value::Map(vec![
                        ("stat".into(), Value::Str(p.stat.name().to_string())),
                        ("prefix".into(), Value::Str(p.prefix.clone())),
                    ]),
                ));
            }
            m.push(("sweep".into(), Value::Map(sm)));
        }
        if !self.inputs.is_empty() {
            m.push((
                "inputs".into(),
                Value::Map(
                    self.inputs
                        .iter()
                        .map(|(variant, cells)| {
                            (
                                variant.clone(),
                                Value::Map(
                                    cells
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(lf) = &self.label_from {
            m.push(("label_from".into(), Value::Str(lf.clone())));
        }
        if !self.quick.is_empty() {
            m.push(("quick".into(), pairs_value(&self.quick)));
        }
        Value::Map(m)
    }
}

impl<'de> serde::Deserialize<'de> for ScenarioSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        ScenarioSpec::from_value(value).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl serde::Serialize for AdaptiveCcSpec {
    fn to_value(&self) -> Value {
        let policy = match &self.policy {
            MetaPolicySpec::ConflictThreshold {
                threshold,
                ewma_weight,
            } => Value::Map(vec![(
                "conflict_threshold".into(),
                Value::Map(vec![
                    ("threshold".into(), Value::Num(*threshold)),
                    ("ewma_weight".into(), Value::Num(*ewma_weight)),
                ]),
            )]),
            MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            } => Value::Map(vec![(
                "restart_rate".into(),
                Value::Map(vec![
                    ("threshold".into(), Value::Num(*threshold)),
                    ("ewma_weight".into(), Value::Num(*ewma_weight)),
                ]),
            )]),
            MetaPolicySpec::ShadowScore { ewma_weight } => Value::Map(vec![(
                "shadow_score".into(),
                Value::Map(vec![("ewma_weight".into(), Value::Num(*ewma_weight))]),
            )]),
        };
        Value::Map(vec![
            (
                "candidates".into(),
                Value::Seq(
                    self.candidates
                        .iter()
                        .map(|c| Value::Str(cc_spec_name(*c).to_string()))
                        .collect(),
                ),
            ),
            ("policy".into(), policy),
            ("min_dwell_s".into(), Value::Num(self.min_dwell_s)),
            ("cooldown_s".into(), Value::Num(self.cooldown_s)),
            ("hysteresis".into(), Value::Num(self.hysteresis)),
        ])
    }
}

impl serde::Serialize for VariantSpec {
    fn to_value(&self) -> Value {
        let mut m = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if !self.set.is_empty() {
            m.push(("set".into(), Value::Map(self.set.clone())));
        }
        if !self.quick.is_empty() {
            m.push(("quick".into(), Value::Map(self.quick.clone())));
        }
        Value::Map(m)
    }
}

impl serde::Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("k".into(), self.k.to_value()),
            ("query_frac".into(), self.query_frac.to_value()),
            ("write_frac".into(), self.write_frac.to_value()),
            ("access_skew".into(), self.access_skew.to_value()),
            (
                "arrival_rate_factor".into(),
                self.arrival_rate_factor.to_value(),
            ),
            (
                "think_time_factor".into(),
                self.think_time_factor.to_value(),
            ),
        ])
    }
}

impl serde::Serialize for ControllerSpec {
    fn to_value(&self) -> Value {
        let tag = |t: &str, payload: Value| Value::Map(vec![(t.to_string(), payload)]);
        match self {
            ControllerSpec::None => Value::Str("none".into()),
            ControllerSpec::Unlimited => Value::Str("unlimited".into()),
            ControllerSpec::Fixed { bound } => tag(
                "fixed",
                Value::Map(vec![("bound".into(), Value::U64(u64::from(*bound)))]),
            ),
            ControllerSpec::FixedAnalyticOptimum { at_ms, n_max } => tag(
                "fixed_analytic_optimum",
                Value::Map(vec![
                    ("at_ms".into(), Value::Num(*at_ms)),
                    ("n_max".into(), Value::U64(u64::from(*n_max))),
                ]),
            ),
            ControllerSpec::Is(p) => tag("is", p.to_value()),
            ControllerSpec::Pa(p) => tag("pa", p.to_value()),
            ControllerSpec::SelfTuningIs { is, outer } => tag(
                "self_tuning_is",
                Value::Map(vec![
                    ("is".into(), is.to_value()),
                    ("outer".into(), outer.to_value()),
                ]),
            ),
            ControllerSpec::SelfTuningPa { pa, outer } => tag(
                "self_tuning_pa",
                Value::Map(vec![
                    ("pa".into(), pa.to_value()),
                    ("outer".into(), outer.to_value()),
                ]),
            ),
            ControllerSpec::Hybrid(p) => tag(
                "hybrid",
                Value::Map(vec![
                    ("is".into(), p.is.to_value()),
                    ("pa".into(), p.pa.to_value()),
                    (
                        "bootstrap_samples".into(),
                        Value::U64(p.bootstrap_samples),
                    ),
                    ("revert_after".into(), Value::U64(u64::from(p.revert_after))),
                    (
                        "revert_window".into(),
                        Value::U64(u64::from(p.revert_window)),
                    ),
                ]),
            ),
            ControllerSpec::Iyer(p) => tag("iyer", p.to_value()),
            ControllerSpec::RetryBudget(p) => tag("retry_budget", p.to_value()),
            ControllerSpec::Tay {
                k,
                min_bound,
                max_bound,
            } => tag(
                "tay",
                Value::Map(vec![
                    ("k".into(), Value::U64(u64::from(*k))),
                    ("min_bound".into(), Value::U64(u64::from(*min_bound))),
                    ("max_bound".into(), Value::U64(u64::from(*max_bound))),
                ]),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "mini", "horizon_ms": 1000.0}"#,
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.replications, 1);
        assert_eq!(spec.cc, CcKind::Certification);
        assert_eq!(spec.controller, ControllerSpec::None);
        assert_eq!(spec.workload, WorkloadSpec::default());
        assert!(!spec.record_optimum);
    }

    #[test]
    fn unknown_keys_are_rejected_everywhere() {
        for bad in [
            r#"{"name": "x", "horizon_ms": 1.0, "horizn": 2.0}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "workload": {"kk": 8}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "system": {"terminal": 4}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "controller": {"is": {"beta2": 1}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "columns": ["throughputt"]}"#,
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec {bad}");
        }
    }

    fn parse_err(body: &str) -> String {
        let json = format!(r#"{{"name": "x", "horizon_ms": 1.0, {body}}}"#);
        match serde_json::from_str::<ScenarioSpec>(&json) {
            Ok(_) => panic!("accepted bad spec {json}"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn section_payloads_must_be_objects() {
        // Each of these read as "all defaults" when a payload that is
        // not an object was taken for an empty one.
        for bad in [
            r#""controller": {"hybrid": 7}"#,
            r#""controller": {"self_tuning_pa": "auto"}"#,
            r#""clients": {"population": 4, "timeout": 100, "retry": {"budget": 3}}"#,
            r#""clients": {"population": 4, "timeout": 100, "retry": {"backoff": []}}"#,
            r#""cc": {"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0,
                                   "policy": {"shadow_score": "fast"}}}"#,
            r#""columns": [{"settling_time_s": 5}]"#,
            r#""columns": [{"post_switch_settling_time_s": 5}]"#,
        ] {
            let msg = parse_err(bad);
            assert!(msg.contains("must be an object"), "{bad}: {msg}");
        }
    }

    #[test]
    fn repeated_keys_are_rejected() {
        // The last one used to win silently.
        for (bad, section) in [
            (r#""horizon_ms": 2.0"#, "spec"),
            (r#""clients": {"population": 4, "population": 8, "timeout": 100}"#, "clients"),
            (r#""system": {"terminals": 5, "terminals": 50}"#, "system"),
            (r#""quick": {"seed": 1, "seed": 2}"#, "quick"),
            (r#""controller": {"pa": {"alpha": 0.5, "alpha": 0.9}}"#, "controller.pa"),
            (r#""workload": {"k": {"step": {"at": 1, "at": 2, "before": 4, "after": 8}}}"#, "step"),
            (
                r#""faults": [{"at": 1.0, "cpus_down": 1, "repair":
                               {"erlang": {"stages": 2, "mean": 5.0, "mean": 9.0}}}]"#,
                "Erlang",
            ),
        ] {
            let msg = parse_err(bad);
            assert!(msg.contains("twice") && msg.contains(section), "{bad}: {msg}");
        }
    }

    #[test]
    fn unknown_key_errors_list_the_known_keys() {
        let msg = parse_err(r#""clients": {"population": 4, "timeout": 100, "patience": 3}"#);
        assert!(msg.contains("unknown `clients` key `patience`"), "{msg}");
        assert!(msg.contains("known: population, timeout, max_retries"), "{msg}");
        // Keys that only the derive shim read past: a profile field and
        // a canonical distribution field.
        let msg = parse_err(
            r#""workload": {"k": {"step": {"at": 1, "before": 4, "after": 8, "aftr": 9}}}"#,
        );
        assert!(msg.contains("unknown `step` key `aftr`"), "{msg}");
        let msg = parse_err(r#""system": {"think": {"ExpZig": {"mean": 300, "men": 3}}}"#);
        assert!(msg.contains("`ExpZig` has no key `men`"), "{msg}");
    }

    #[test]
    fn empty_retry_payloads_are_the_defaults() {
        let v: Value = serde_json::from_str(r#"{"backoff": {}}"#).unwrap();
        assert_eq!(retry_policy_from_value(&v).unwrap(), RetryPolicy::default());
    }

    #[test]
    fn controller_specs_parse_with_partial_params() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "c", "horizon_ms": 1.0,
                "controller": {"is": {"initial_bound": 5, "max_bound": 60}}}"#,
        )
        .unwrap();
        let ControllerSpec::Is(p) = spec.controller else {
            panic!("wrong controller");
        };
        assert_eq!(p.initial_bound, 5);
        assert_eq!(p.max_bound, 60);
        // Unspecified fields keep the crate defaults.
        assert_eq!(p.beta, IsParams::default().beta);
    }

    #[test]
    fn cc_aliases_parse() {
        for (alias, want) in [
            ("certification", CcKind::Certification),
            ("2pl", CcKind::TwoPhaseLocking),
            ("wound-wait", CcKind::WoundWait),
            ("mvto", CcKind::Multiversion),
            ("Certification", CcKind::Certification),
        ] {
            let json = format!(r#"{{"name": "c", "horizon_ms": 1.0, "cc": "{alias}"}}"#);
            let spec: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec.cc, want, "{alias}");
        }
    }

    #[test]
    fn truncating_and_mistyped_integers_are_rejected() {
        for bad in [
            // u32 truncation: 2^32 would silently become 0.
            r#"{"name": "x", "horizon_ms": 1.0, "replications": 4294967296}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "controller": {"fixed": {"bound": 4294967296}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"fixed_analytic_optimum": {"n_max": 4294967296}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"tay": {"k": 4294967296, "max_bound": 60}}}"#,
            // Present-but-mistyped optional fields must error, not
            // silently keep their defaults.
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"fixed_analytic_optimum": {"at_ms": "1e6", "n_max": 100}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"tay": {"k": 4, "min_bound": "two", "max_bound": 60}}}"#,
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec {bad}");
        }
    }

    #[test]
    fn variant_names_are_filename_safe() {
        for bad in ["cc/2pl", "", "a b"] {
            let json = format!(
                r#"{{"name": "x", "horizon_ms": 1.0, "variants": [{{"name": "{bad}"}}]}}"#
            );
            let r: Result<ScenarioSpec, _> = serde_json::from_str(&json);
            assert!(r.is_err(), "accepted variant name `{bad}`");
        }
        // The dot stays legal: `iyer-0.75` is a real ported label.
        let ok: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0, "variants": [{"name": "iyer-0.75"}]}"#,
        )
        .unwrap();
        assert_eq!(ok.variants[0].name, "iyer-0.75");
    }

    #[test]
    fn open_arrival_rejects_stray_keys() {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"arrival": {"open": {
                    "interarrival": {"exponential": 5}, "rate_per_s": 200}}}}"#,
        );
        assert!(r.is_err(), "stray `rate_per_s` key silently dropped");
    }

    #[test]
    fn offered_load_lowers_to_interarrival_mean() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"terminals": 80, "offered_load_per_s": 250}}"#,
        )
        .unwrap();
        let sys: SystemConfig = crate::value_util::from_overrides(&spec.system, "system").unwrap();
        let alc_tpsim::config::ArrivalProcess::Open { interarrival } = sys.arrival else {
            panic!("offered load must lower to an open arrival stream");
        };
        assert_eq!(interarrival, alc_des::dist::Dist::exponential(4.0));

        // Both arrival vocabularies at once are ambiguous.
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"arrival": "closed", "offered_load_per_s": 250}}"#,
        );
        assert!(r.is_err(), "conflicting arrival sources accepted");
        // And the rate must be a positive number.
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"offered_load_per_s": "fast"}}"#,
        );
        assert!(r.is_err());
    }

    #[test]
    fn seed_belongs_at_top_level() {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0, "system": {"seed": 42}}"#,
        );
        assert!(r.is_err());
    }

    #[test]
    fn cross_field_validations_reject_unsatisfiable_specs() {
        for (bad, why) in [
            (
                r#"{"name": "x", "horizon_ms": 1.0, "columns": [{"input": "alpha"}]}"#,
                "input column without variants",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0, "label_from": "alpha"}"#,
                "label_from without variants",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "variants": [{"name": "a"}],
                    "columns": [{"input": "alpha"}]}"#,
                "input column with no matching cell",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "columns": ["post_jump_tracking_err"]}"#,
                "tracking column without record_optimum",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "variants": [{"name": "a"}],
                    "sweep": {"axes": [{"header": "h", "path": "cc",
                                        "values": ["2pl"]}]}}"#,
                "sweep and variants together",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "sweep": {"axes": [{"header": "h", "path": "system.terminals",
                                        "values": [5, 5]}]}}"#,
                "duplicate axis labels collapse cells",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "cc": {"phases": [[100.0, "2pl"]]}}"#,
                "cc phases must start at 0",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "faults": [{"at": 1.0, "cpus_down": 2}]}"#,
                "fault without duration",
            ),
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec ({why}): {bad}");
        }
    }

    #[test]
    fn cc_phases_parse_and_split() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "cc": {"phases": [[0.0, "certification"], [500.0, "2pl"]]}}"#,
        )
        .unwrap();
        assert_eq!(spec.cc, CcKind::Certification);
        assert_eq!(spec.cc_phases, vec![(500.0, CcKind::TwoPhaseLocking)]);
    }

    #[test]
    fn adaptive_cc_parses_and_pins_initial_protocol() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0,
                "cc": {"adaptive": {
                    "candidates": ["certification", "2pl"],
                    "policy": {"conflict_threshold": {"threshold": 0.8}},
                    "min_dwell_s": 30.0,
                    "cooldown_s": 4.0,
                    "hysteresis": 0.2}}}"#,
        )
        .unwrap();
        assert_eq!(spec.cc, CcKind::Certification);
        assert!(spec.cc_phases.is_empty());
        let ad = spec.cc_adaptive.expect("adaptive section");
        assert_eq!(
            ad.candidates,
            vec![CcKind::Certification, CcKind::TwoPhaseLocking]
        );
        assert_eq!(
            ad.policy,
            MetaPolicySpec::ConflictThreshold {
                threshold: 0.8,
                ewma_weight: 0.3
            }
        );
        assert_eq!(ad.min_dwell_s, 30.0);
        let (candidates, policy) = ad.build();
        assert_eq!(candidates.len(), 2);
        assert_eq!(policy.candidate_count(), 2);
        assert_eq!(policy.name(), "conflict-threshold");
    }

    #[test]
    fn adaptive_cc_rejects_malformed_sections() {
        let with_cc = |cc: &str| format!(r#"{{"name": "a", "horizon_ms": 1.0, "cc": {cc}}}"#);
        for (bad, why) in [
            (
                r#"{"adaptive": {"candidates": ["2pl"],
                    "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
                "single candidate",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "2pl"],
                    "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
                "duplicate candidates",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0}}"#,
                "missing policy",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"shadow_score": {}}}}"#,
                "missing min_dwell_s",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"shadow_score": {"threshold": 1.0}}, "min_dwell_s": 1.0}}"#,
                "shadow_score takes no threshold",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"restart_rate": {"threshold": 1.5}}, "min_dwell_s": 1.0}}"#,
                "abort-ratio threshold >= 1",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"conflict_threshold": {"threshold": 0.5}},
                    "min_dwell_s": 1.0, "hysteresis": 1.0}}"#,
                "hysteresis out of range",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"conflict_threshold": {"threshold": 0.5}},
                    "min_dwell_s": 1.0, "dwell": 2.0}}"#,
                "unknown field",
            ),
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(&with_cc(bad));
            assert!(r.is_err(), "accepted bad adaptive section ({why}): {bad}");
        }
    }

    #[test]
    fn adaptive_cc_is_set_addressable() {
        // `--set cc.adaptive.min_dwell_s=5` must reach into the section.
        let mut tree: Value = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0,
                "cc": {"adaptive": {
                    "candidates": ["certification", "2pl"],
                    "policy": {"conflict_threshold": {"threshold": 0.8}},
                    "min_dwell_s": 30.0}}}"#,
        )
        .unwrap();
        crate::value_util::set_path(&mut tree, "cc.adaptive.min_dwell_s", Value::Num(5.0))
            .unwrap();
        crate::value_util::set_path(
            &mut tree,
            "cc.adaptive.policy.conflict_threshold.threshold",
            Value::Num(2.5),
        )
        .unwrap();
        let spec = ScenarioSpec::from_value(&tree).unwrap();
        let ad = spec.cc_adaptive.unwrap();
        assert_eq!(ad.min_dwell_s, 5.0);
        assert_eq!(
            ad.policy,
            MetaPolicySpec::ConflictThreshold {
                threshold: 2.5,
                ewma_weight: 0.3
            }
        );
    }

    #[test]
    fn switch_derived_columns_parse_and_format() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0, "columns": [
                "switch_count",
                {"time_in_protocol": {"cc": "2pl"}},
                {"time_in_protocol": {"cc": "mvto", "header": "mvto_s"}},
                "post_switch_settling_time_s",
                {"post_switch_settling_time_s": {"band": 0.1, "header": "settle"}}
            ]}"#,
        )
        .unwrap();
        let headers: Vec<String> = spec.columns.iter().map(ColumnSpec::header).collect();
        assert_eq!(
            headers,
            vec![
                "switch_count",
                "time_in_protocol:2pl",
                "mvto_s",
                "post_switch_settling_time_s",
                "settle"
            ]
        );
        assert!(spec.columns.iter().all(ColumnSpec::needs_trajectories));
        assert!(!spec.columns.iter().any(ColumnSpec::needs_optimum));

        // Format against a synthetic trace: cert for 0–10 s, 2pl after.
        use alc_tpsim::engine::SwitchEvent;
        let mut traj = Trajectories::new();
        traj.switches.push(SwitchEvent {
            decided_at_ms: 9_000.0,
            completed_at_ms: 10_000.0,
            from: CcKind::Certification,
            to: CcKind::TwoPhaseLocking,
        });
        for i in 0..20 {
            let t = alc_des::SimTime::new(f64::from(i) * 1_000.0);
            // Throughput recovers to 100 (±1) three samples after the swap.
            let v = if i < 13 { 40.0 } else { 100.0 + f64::from(i % 2) };
            traj.throughput.push(t, v);
        }
        let fmt = |col: &ColumnSpec| match col {
            ColumnSpec::Derived(d) => d.format(&traj, 20_000.0, CcKind::Certification),
            _ => unreachable!(),
        };
        assert_eq!(fmt(&spec.columns[0]), "1");
        // 2pl in force from the swap at 10 s to the 20 s horizon.
        assert_eq!(fmt(&spec.columns[1]), "10.0");
        assert_eq!(fmt(&spec.columns[2]), "0");
        // Settles when throughput reaches the final-quarter level at 13 s.
        assert_eq!(fmt(&spec.columns[3]), "3.00");
    }

    #[test]
    fn stat_columns_cover_run_stats() {
        let stats = RunStats {
            duration_ms: 1000.0,
            commits: 10,
            aborts: 2,
            throughput_per_sec: 10.0,
            mean_response_ms: 55.5,
            mean_mpl: 3.3,
            mean_bound: 8.0,
            abort_ratio: 1.0 / 6.0,
            cpu_utilization: 0.5,
            displaced: 1,
            conflicts_per_commit: 0.2,
            lost: 0,
        };
        assert_eq!(StatColumn::Commits.format(&stats), "10");
        assert_eq!(StatColumn::Displaced.format(&stats), "1");
        assert_eq!(StatColumn::ThroughputPerS.format(&stats), "10.0");
        for c in StatColumn::ALL {
            assert_eq!(StatColumn::parse(c.name()).unwrap(), c);
        }
    }
}
