//! Simulator configuration.
//!
//! The physical-model parameters follow the paper's §7 description; the
//! concrete values are our calibration (the original used customer-trace
//! parameters from Yu et al. 1987 that are not public).
//! Defaults are chosen so the stationary optimum MPL lands in the low
//! hundreds and the load axis meaningfully extends to 800, matching the
//! axes of Figures 12–14.

use alc_des::dist::Dist;
use alc_core::measure::PerfIndicator;

/// How transactions enter the system.
///
/// The paper's model (Figure 11) is *closed*: `N` terminals resubmit
/// after a think time, so the offered load is bounded by construction.
/// The open variant — the classic habitat of admission control — feeds
/// an external arrival stream instead: arrivals beyond the slot pool are
/// rejected (counted as lost), everything admitted competes for the MPL
/// exactly as in the closed model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// The paper's closed loop: commit → think time → resubmit.
    Closed,
    /// An external (e.g. Poisson) source with the given interarrival
    /// distribution. `terminals` becomes the transaction slot-pool size
    /// (a connection limit); arrivals finding no free slot are lost.
    Open {
        /// Interarrival-time distribution, ms.
        interarrival: Dist,
    },
}

/// Physical-model parameters: stations, service times, population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of terminals `N` (the closed population / offered load) —
    /// or, in [`ArrivalProcess::Open`] mode, the transaction slot pool.
    pub terminals: u32,
    /// How transactions enter: the paper's closed loop, or an open
    /// arrival stream.
    pub arrival: ArrivalProcess,
    /// Number of CPUs in the homogeneous multiprocessor.
    pub cpus: u32,
    /// CPU burst per phase (the paper's multiprocessor serves one shared
    /// queue; bursts are drawn per phase). CPU demand scales with `k`.
    pub cpu_phase: Dist,
    /// Disk service per *access* phase — "constant service times and no
    /// contention" makes the disk an infinite server. Small by default:
    /// data pages mostly hit the buffer pool.
    pub disk_access: Dist,
    /// Disk service of the init and commit phases each (fixed per
    /// transaction: catalog reads, log force at commit). Dominating the
    /// I/O demand makes the CPU saturation knee — and with it the optimum
    /// MPL — move with `k`, the §8 behaviour the controllers must track.
    pub disk_init_commit: Dist,
    /// Terminal think time between a commit and the next submission.
    pub think: Dist,
    /// Delay before an aborted transaction restarts inside the system.
    pub restart_delay: Dist,
    /// Number of data items in the database (`D`).
    pub db_size: u64,
    /// Whether a restarted transaction draws a fresh access set (`true`,
    /// models a re-planned execution and avoids repeated deterministic
    /// collisions) or retries the same items (`false`).
    pub resample_on_restart: bool,
    /// Master RNG seed; every run is fully determined by it.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            terminals: 400,
            arrival: ArrivalProcess::Closed,
            cpus: 16,
            cpu_phase: Dist::exponential(4.0),
            disk_access: Dist::constant(4.0),
            disk_init_commit: Dist::constant(150.0),
            think: Dist::exponential(1000.0),
            restart_delay: Dist::constant(5.0),
            db_size: 2000,
            resample_on_restart: true,
            seed: 0x5EED_1991,
        }
    }
}

impl SystemConfig {
    /// Expected total CPU demand of one run with `k` access phases
    /// (`k + 2` phases overall), used for analytic cross-checks.
    pub fn cpu_per_run_ms(&self, k: u32) -> f64 {
        use alc_des::dist::Sample;
        f64::from(k + 2) * self.cpu_phase.mean()
    }

    /// Expected total disk demand of one run with `k` access phases.
    pub fn disk_per_run_ms(&self, k: u32) -> f64 {
        use alc_des::dist::Sample;
        2.0 * self.disk_init_commit.mean() + f64::from(k) * self.disk_access.mean()
    }

    /// The first field the engine cannot run with, as `<field> must …`:
    /// each of these otherwise panics a station, the calendar or a
    /// sampler mid-run, long after the config was accepted.
    pub fn check(&self) -> Result<(), String> {
        for (field, count) in [
            ("terminals", u64::from(self.terminals)),
            ("cpus", u64::from(self.cpus)),
            ("db_size", self.db_size),
        ] {
            if count == 0 {
                return Err(format!("{field} must be ≥ 1"));
            }
        }
        // An access packs its item id into 63 bits (`txn::Access`).
        if self.db_size > 1 << 63 {
            return Err("db_size must be ≤ 2⁶³".into());
        }
        let open = match &self.arrival {
            ArrivalProcess::Open { interarrival } => Some(("arrival.interarrival", interarrival)),
            ArrivalProcess::Closed => None,
        };
        let delays = [
            ("cpu_phase", &self.cpu_phase),
            ("disk_access", &self.disk_access),
            ("disk_init_commit", &self.disk_init_commit),
            ("think", &self.think),
            ("restart_delay", &self.restart_delay),
        ];
        match delays.into_iter().chain(open).find(|(_, d)| !is_delay(d)) {
            Some((field, _)) => Err(format!(
                "{field} must draw finite delays ≥ 0 only (an Erlang from ≥ 1 stage)"
            )),
            None => Ok(()),
        }
    }
}

/// Whether every draw of `d` is a finite time ≥ 0.
fn is_delay(d: &Dist) -> bool {
    let time = |x: f64| x.is_finite() && x >= 0.0;
    match d {
        Dist::Constant(c) => time(c.0),
        Dist::Uniform(u) => time(u.lo) && time(u.hi) && u.lo <= u.hi,
        Dist::Exponential(e) => time(e.mean),
        Dist::ExpZig(e) => time(e.mean),
        Dist::Erlang(e) => e.stages >= 1 && time(e.mean),
        Dist::HyperExp(h) => (0.0..=1.0).contains(&h.p) && time(h.mean_a) && time(h.mean_b),
    }
}

/// Which concurrency-control protocol the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcKind {
    /// Timestamp certification (optimistic backward validation) — the
    /// paper's protocol.
    Certification,
    /// Strict two-phase locking with deadlock detection.
    TwoPhaseLocking,
    /// Basic timestamp ordering.
    TimestampOrdering,
    /// Strict 2PL with wound-wait deadlock prevention (older requesters
    /// preempt younger holders).
    WoundWait,
    /// Strict 2PL with wait-die deadlock prevention (younger requesters
    /// abort themselves).
    WaitDie,
    /// Multiversion timestamp ordering (reads never abort).
    Multiversion,
}

impl CcKind {
    /// All protocols, for sweeps and comparison benches.
    pub const ALL: [CcKind; 6] = [
        CcKind::Certification,
        CcKind::TwoPhaseLocking,
        CcKind::TimestampOrdering,
        CcKind::WoundWait,
        CcKind::WaitDie,
        CcKind::Multiversion,
    ];

    /// Short static name, as used in trace events and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CcKind::Certification => "certification",
            CcKind::TwoPhaseLocking => "2pl",
            CcKind::TimestampOrdering => "timestamp",
            CcKind::WoundWait => "wound-wait",
            CcKind::WaitDie => "wait-die",
            CcKind::Multiversion => "multiversion",
        }
    }
}

/// How displacement (§4.3) picks which running transaction to abort when
/// the bound drops below the current load. "Victim selection may be based
/// on the same criteria as for deadlock breaking."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VictimPolicy {
    /// The youngest run (largest timestamp) — least sunk work by age, the
    /// classic deadlock-breaking default.
    #[default]
    Youngest,
    /// The oldest run (smallest timestamp) — a deliberately bad policy,
    /// kept as an ablation baseline (it maximizes wasted work).
    Oldest,
    /// The run with the fewest completed phases — minimizes wasted
    /// resource consumption directly instead of via age.
    LeastProgress,
    /// The run with the most completed phases — the other ablation
    /// extreme.
    MostProgress,
}

impl VictimPolicy {
    /// All policies, for sweeps and ablations.
    pub const ALL: [VictimPolicy; 4] = [
        VictimPolicy::Youngest,
        VictimPolicy::Oldest,
        VictimPolicy::LeastProgress,
        VictimPolicy::MostProgress,
    ];
}

/// Load-control wiring for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Measurement interval Δt between controller invocations, ms.
    pub sample_interval_ms: f64,
    /// The §6 performance indicator fed to the controller.
    pub indicator: PerfIndicator,
    /// Enforce a freshly lowered bound by aborting surplus transactions
    /// (§4.3 "displacement"). The paper's default — and ours — is off:
    /// admission control alone was "responsive enough".
    pub displacement: bool,
    /// Who gets displaced when `displacement` is on.
    pub victim_policy: VictimPolicy,
    /// Initial gate bound before the controller's first decision.
    pub initial_bound: u32,
    /// Simulated time to run before measurements count (warm-up), ms.
    pub warmup_ms: f64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            sample_interval_ms: 2000.0,
            indicator: PerfIndicator::Throughput,
            displacement: false,
            victim_policy: VictimPolicy::default(),
            initial_bound: 50,
            warmup_ms: 20_000.0,
        }
    }
}

impl ControlConfig {
    /// The first field the engine cannot run with, as `<field> must …`:
    /// the sample tick is scheduled on the calendar, which takes finite
    /// times only.
    pub fn check(&self) -> Result<(), String> {
        if self.sample_interval_ms > 0.0 && self.sample_interval_ms.is_finite() {
            Ok(())
        } else {
            Err("sample_interval_ms must be finite and > 0".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = SystemConfig::default();
        assert!(cfg.terminals > 0 && cfg.cpus > 0 && cfg.db_size > 0);
        // Per-run demands for the default k=8: 10 phases of CPU, fixed
        // init/commit disk plus 8 access-phase reads.
        assert!((cfg.cpu_per_run_ms(8) - 40.0).abs() < 1e-9);
        assert!((cfg.disk_per_run_ms(8) - 332.0).abs() < 1e-9);
    }

    #[test]
    fn db_size_must_fit_an_access_word() {
        let at = |db_size| SystemConfig {
            db_size,
            ..SystemConfig::default()
        };
        assert_eq!(at(1 << 63).check(), Ok(()));
        assert_eq!(
            at((1 << 63) + 1).check(),
            Err("db_size must be ≤ 2⁶³".into())
        );
        assert_eq!(at(u64::MAX).check(), Err("db_size must be ≤ 2⁶³".into()));
    }

    #[test]
    fn control_defaults() {
        let c = ControlConfig::default();
        assert!(!c.displacement);
        assert!(c.sample_interval_ms > 0.0);
        assert_eq!(c.indicator, PerfIndicator::Throughput);
    }
}
