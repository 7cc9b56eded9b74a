//! The report-column vocabulary: raw-statistics, client-population and
//! trajectory-derived columns, how each is named, parsed and formatted.

use std::fmt;

use alc_tpsim::client::ClientStats;
use alc_tpsim::config::CcKind;
use alc_tpsim::engine::{RunStats, Trajectories};
use serde::Value;

use super::cc_spec_name;
use super::sections::cc_from_value;
use crate::table::num;
use crate::value_util::{
    below_one, nonempty, positive, single_key, string, unknown_key, At, Keys, Obj,
};
use crate::SpecError;

/// A raw-statistics column of the report table: one row of
/// [`StatColumn::ALL`], its spec/CSV name and how it renders.
#[derive(Clone, Copy)]
pub struct StatColumn {
    name: &'static str,
    render: fn(&RunStats) -> String,
}

impl StatColumn {
    /// Every column, in the order [`crate::spec::vocabulary`] lists them.
    /// Integer counters format via `to_string`, continuous values via the
    /// shared `num` table format.
    #[rustfmt::skip]
    pub const ALL: [StatColumn; 11] = [
        StatColumn { name: "throughput_per_s", render: |s| num(s.throughput_per_sec) },
        StatColumn { name: "abort_ratio", render: |s| num(s.abort_ratio) },
        StatColumn { name: "mean_response_ms", render: |s| num(s.mean_response_ms) },
        StatColumn { name: "mean_mpl", render: |s| num(s.mean_mpl) },
        StatColumn { name: "mean_bound", render: |s| num(s.mean_bound) },
        StatColumn { name: "commits", render: |s| s.commits.to_string() },
        StatColumn { name: "aborts", render: |s| s.aborts.to_string() },
        StatColumn { name: "displaced", render: |s| s.displaced.to_string() },
        StatColumn { name: "lost", render: |s| s.lost.to_string() },
        StatColumn { name: "conflicts_per_commit", render: |s| num(s.conflicts_per_commit) },
        StatColumn { name: "cpu_utilization", render: |s| num(s.cpu_utilization) },
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        StatColumn::ALL
            .into_iter()
            .find(|c| c.name == s)
            .ok_or_else(|| SpecError::new(format!("unknown stat column `{s}`")))
    }

    /// Formats the column's value from run statistics.
    pub fn format(&self, stats: &RunStats) -> String {
        (self.render)(stats)
    }
}

/// A client-population column of the report table: one row of
/// [`ClientColumn::ALL`], rendered from the run's [`ClientStats`] (`-`
/// for runs without a `clients` section).
#[derive(Clone, Copy)]
pub struct ClientColumn {
    name: &'static str,
    render: fn(&ClientStats, f64) -> String,
}

impl ClientColumn {
    /// Every column, in the order [`crate::spec::vocabulary`] lists them:
    /// the pool's counters (`shed_retries` counts the retries bounced at
    /// the gate), committed requests per second, and attempts per issued
    /// request (`1.0` = no retry traffic at all).
    #[rustfmt::skip]
    pub const ALL: [ClientColumn; 8] = [
        ClientColumn { name: "issued", render: |s, _| s.issued.to_string() },
        ClientColumn { name: "attempts", render: |s, _| s.attempts.to_string() },
        ClientColumn { name: "retries", render: |s, _| s.retries.to_string() },
        ClientColumn { name: "abandoned", render: |s, _| s.abandoned.to_string() },
        ClientColumn { name: "timeouts", render: |s, _| s.timeouts.to_string() },
        ClientColumn { name: "shed_retries", render: |s, _| s.shed.to_string() },
        ClientColumn { name: "goodput_per_s", render: |s, ms| num(s.goodput_per_sec(ms)) },
        ClientColumn { name: "retry_amplification", render: |s, _| num(s.retry_amplification()) },
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        ClientColumn::ALL
            .into_iter()
            .find(|c| c.name == s)
            .ok_or_else(|| SpecError::new(format!("unknown client column `{s}`")))
    }

    /// Formats the column from the run's client stats over a run of
    /// `duration_ms` (`-` when the run had no client pool).
    pub fn format(&self, clients: Option<&ClientStats>, duration_ms: f64) -> String {
        clients.map_or_else(|| "-".to_string(), |s| (self.render)(s, duration_ms))
    }
}

// A column is its name: two rows are the same column when their names
// are, and a column prints as its name.
impl PartialEq for StatColumn {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl fmt::Debug for StatColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl PartialEq for ClientColumn {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl fmt::Debug for ClientColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
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
    /// throughput first enters the ±25 % band around its settled
    /// post-switch level (the mean of the final quarter of the
    /// post-switch samples); `never` when it doesn't, `-` for runs
    /// without a switch.
    PostSwitchSettling,
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
            ColumnSpec::Derived(DerivedColumn::SettlingTime { header, .. }) => header.clone(),
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol { cc, header }) => header
                .clone()
                .unwrap_or_else(|| format!("time_in_protocol:{}", cc_spec_name(*cc))),
            ColumnSpec::Derived(DerivedColumn::TimeToRecover { header, .. }) => header.clone(),
            ColumnSpec::Derived(bare) => DERIVED
                .iter()
                .find(|(_, c)| c == bare)
                .map(|(name, _)| name.to_string())
                .expect("every parameterless derived column is named in DERIVED"),
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
            DerivedColumn::PostSwitchSettling => {
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
                    .find(|&&(_, x)| (x - settled).abs() <= 0.25 * settled.abs())
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

/// The derived columns written as a bare name.
pub(super) const DERIVED: [(&str, DerivedColumn); 4] = [
    ("post_jump_tracking_err", DerivedColumn::PostJumpTrackingErr),
    ("conflict_ratio_at_peak", DerivedColumn::ConflictRatioAtPeak),
    ("switch_count", DerivedColumn::SwitchCount),
    ("post_switch_settling_time_s", DerivedColumn::PostSwitchSettling),
];

/// The column kinds written as single-key objects.
pub(super) const COLUMN: Keys = &[
    "settling_time_s",
    "time_in_protocol",
    "time_to_recover_s",
    "input",
    "literal",
];

pub(super) fn column_from_value(v: &Value) -> Result<ColumnSpec, SpecError> {
    if let Value::Str(name) = v {
        return if let Some((_, c)) = DERIVED.iter().find(|(n, _)| n == name) {
            Ok(ColumnSpec::Derived(c.clone()))
        } else if let Ok(c) = StatColumn::parse(name) {
            Ok(ColumnSpec::Stat(c))
        } else if let Ok(c) = ClientColumn::parse(name) {
            Ok(ColumnSpec::Client(c))
        } else {
            Err(SpecError::new(format!("unknown column `{name}`")))
        };
    }
    let (tag, payload) = single_key(v, "columns[]", COLUMN)
        .map_err(|e| e.context("a column is a stat/derived/client name, or"))?;
    Ok(match tag {
        "settling_time_s" => {
            let mut o = Obj::open(payload, tag)?;
            let col = DerivedColumn::SettlingTime {
                header: o.opt("header", string)?.unwrap_or_else(|| tag.to_string()),
                after_frac: o.req("after_frac", below_one)?,
                band: o.or("band", positive, 0.25)?,
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "time_in_protocol" => {
            let mut o = Obj::open(payload, tag)?;
            let col = DerivedColumn::TimeInProtocol {
                cc: o.req("cc", |v, _| cc_from_value(v))?,
                header: o.opt("header", nonempty)?,
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "time_to_recover_s" => {
            let mut o = Obj::open(payload, tag)?;
            let col = DerivedColumn::TimeToRecover {
                header: o.opt("header", nonempty)?.unwrap_or_else(|| tag.to_string()),
                after_ms: o.req("after_ms", positive)?,
                band: o.or("band", positive, 0.7)?,
            };
            ColumnSpec::Derived(o.finish(col)?)
        }
        "input" => ColumnSpec::Input(nonempty(payload, At("columns[]", tag))?),
        "literal" => {
            let mut o = Obj::open(payload, tag)?;
            let col = ColumnSpec::Literal {
                header: o.req("header", string)?,
                value: o.req("value", string)?,
            };
            o.finish(col)?
        }
        other => return Err(unknown_key("columns[]", other, COLUMN)),
    })
}

/// Default report columns: the first five stat columns,
/// `throughput_per_s` through `mean_bound`.
pub(super) fn default_columns() -> Vec<ColumnSpec> {
    StatColumn::ALL[..5].iter().copied().map(ColumnSpec::Stat).collect()
}
