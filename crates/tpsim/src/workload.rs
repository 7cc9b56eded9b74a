//! Time-varying workload parameters (§8).
//!
//! "The dynamic change of the load characteristic was carried out by
//! varying one of the following parameters: k, the number of locks per
//! transaction; fraction of queries; fraction of write accesses for
//! updaters. Variation of all these parameters showed significant impact
//! on both height and position of the optimum throughput."
//!
//! Each parameter is an [`alc_analytic::surface::Schedule`], so jumps
//! (Figures 13/14) and sinusoids (§9 "smooth and gradual changes") come
//! for free and stay consistent with the synthetic surfaces used in
//! controller unit tests.

use alc_analytic::occ::OccModel;
use alc_analytic::surface::Schedule;

use crate::config::SystemConfig;

/// The logical-model workload over time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadConfig {
    /// Data items accessed per transaction, `k(t)`. Evaluated at instance
    /// creation; rounded to an integer ≥ 1.
    pub k: Schedule,
    /// Fraction of read-only queries, `q(t) ∈ [0, 1]`.
    pub query_frac: Schedule,
    /// Fraction of an updater's accesses that are writes, `w(t) ∈ [0, 1]`.
    pub write_frac: Schedule,
    /// Zipf skew θ(t) of item selection. The paper's model uses uniform
    /// selection ("no hot spots"), i.e. θ = 0 — the default. Positive
    /// values concentrate accesses on hot items (our hot-spot extension).
    pub access_skew: Schedule,
    /// Load-intensity extension: multiplier on the *open-mode* arrival
    /// rate, `a(t) > 0`. Interarrival delays are divided by it, so `2.0`
    /// doubles the offered load — the knob flash-crowd / surge scenarios
    /// turn. `1.0` (the default) reproduces the stationary arrival
    /// process exactly.
    pub arrival_rate_factor: Schedule,
    /// Load-intensity extension: multiplier on the *closed-mode* think
    /// time, `h(t) > 0`. Think delays are multiplied by it, so `0.5`
    /// makes every terminal twice as eager — the closed-model analogue of
    /// an arrival surge. `1.0` (the default) is the paper's stationary
    /// terminal behaviour.
    pub think_time_factor: Schedule,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            k: Schedule::Constant(8.0),
            query_frac: Schedule::Constant(0.2),
            write_frac: Schedule::Constant(0.25),
            access_skew: Schedule::Constant(0.0),
            arrival_rate_factor: Schedule::Constant(1.0),
            think_time_factor: Schedule::Constant(1.0),
        }
    }
}

/// The workload parameter values in force at one instant.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadAt {
    /// Items accessed per transaction.
    pub k: u32,
    /// Query (read-only) fraction.
    pub query_frac: f64,
    /// Updater write-access fraction.
    pub write_frac: f64,
    /// Zipf access skew θ (0 = uniform).
    pub access_skew: f64,
}

impl WorkloadConfig {
    /// Samples the schedules at time `t_ms`.
    pub fn at(&self, t_ms: f64) -> WorkloadAt {
        WorkloadAt {
            k: self.k.value(t_ms).round().max(1.0) as u32,
            query_frac: self.query_frac.value(t_ms).clamp(0.0, 1.0),
            write_frac: self.write_frac.value(t_ms).clamp(0.0, 1.0),
            access_skew: self.access_skew.value(t_ms).max(0.0),
        }
    }

    /// The analytic OCC throughput model matching this workload at time
    /// `t_ms` — the source of the "true optimum" reference line `n_opt(t)`
    /// (the broken line in Figures 13/14). Access skew enters through the
    /// effective database size (`1/Σpᵢ²`).
    pub fn occ_model_at(&self, t_ms: f64, sys: &SystemConfig) -> OccModel {
        let w = self.at(t_ms);
        let effective_db =
            alc_analytic::occ::effective_db_size(sys.db_size, w.access_skew).round() as u64;
        OccModel::new(
            w.k,
            effective_db.max(1),
            w.query_frac,
            w.write_frac,
            sys.cpu_per_run_ms(w.k),
            sys.disk_per_run_ms(w.k),
            sys.cpus,
        )
    }

    /// The arrival-rate multiplier in force at `t_ms`, floored at a tiny
    /// positive value so a zero/negative schedule cannot stall the
    /// arrival stream into a division by zero.
    pub fn arrival_rate_factor_at(&self, t_ms: f64) -> f64 {
        self.arrival_rate_factor.value(t_ms).max(1e-9)
    }

    /// The think-time multiplier in force at `t_ms`, floored at zero
    /// (a zero factor means terminals resubmit immediately).
    pub fn think_time_factor_at(&self, t_ms: f64) -> f64 {
        self.think_time_factor.value(t_ms).max(0.0)
    }

    /// The analytic optimal MPL at time `t_ms`, scanned up to `n_max`.
    pub fn analytic_optimum(&self, t_ms: f64, sys: &SystemConfig, n_max: u32) -> u32 {
        self.occ_model_at(t_ms, sys).curve(n_max).optimal_mpl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default workload with `k` stepping from `before` to `after`
    /// at `at` ms.
    fn k_jump(before: f64, after: f64, at: f64) -> WorkloadConfig {
        WorkloadConfig {
            k: Schedule::Jump { at, before, after },
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn default_is_stationary() {
        let w = WorkloadConfig::default();
        let a = w.at(0.0);
        let b = w.at(1e9);
        assert_eq!(a, b);
        assert_eq!(a.k, 8);
    }

    #[test]
    fn k_jump_switches_at_time() {
        let w = k_jump(8.0, 14.0, 500_000.0);
        assert_eq!(w.at(499_999.0).k, 8);
        assert_eq!(w.at(500_000.0).k, 14);
    }

    #[test]
    fn k_sinusoid_oscillates() {
        let w = WorkloadConfig {
            k: Schedule::Sinusoid {
                mean: 10.0,
                amplitude: 4.0,
                period: 100_000.0,
            },
            ..WorkloadConfig::default()
        };
        assert_eq!(w.at(0.0).k, 10);
        assert_eq!(w.at(25_000.0).k, 14);
        assert_eq!(w.at(75_000.0).k, 6);
    }

    #[test]
    fn k_is_at_least_one() {
        let w = WorkloadConfig {
            k: Schedule::Constant(-3.0),
            ..WorkloadConfig::default()
        };
        assert_eq!(w.at(0.0).k, 1);
    }

    #[test]
    fn fractions_are_clamped() {
        let w = WorkloadConfig {
            query_frac: Schedule::Constant(1.7),
            write_frac: Schedule::Constant(-0.5),
            ..WorkloadConfig::default()
        };
        let a = w.at(0.0);
        assert_eq!(a.query_frac, 1.0);
        assert_eq!(a.write_frac, 0.0);
    }

    #[test]
    fn load_factors_default_to_identity() {
        let w = WorkloadConfig::default();
        assert_eq!(w.arrival_rate_factor_at(0.0), 1.0);
        assert_eq!(w.think_time_factor_at(1e9), 1.0);
    }

    #[test]
    fn load_factors_are_floored() {
        let w = WorkloadConfig {
            arrival_rate_factor: Schedule::Constant(-2.0),
            think_time_factor: Schedule::Constant(-2.0),
            ..WorkloadConfig::default()
        };
        assert!(w.arrival_rate_factor_at(0.0) > 0.0);
        assert_eq!(w.think_time_factor_at(0.0), 0.0);
    }

    #[test]
    fn burst_profile_on_arrival_rate() {
        // A flash crowd: 1× baseline, 3× during [100s, 120s).
        let w = WorkloadConfig {
            arrival_rate_factor: Schedule::Piecewise(vec![
                (0.0, 1.0),
                (100_000.0, 3.0),
                (120_000.0, 1.0),
            ]),
            ..WorkloadConfig::default()
        };
        assert_eq!(w.arrival_rate_factor_at(50_000.0), 1.0);
        assert_eq!(w.arrival_rate_factor_at(110_000.0), 3.0);
        assert_eq!(w.arrival_rate_factor_at(130_000.0), 1.0);
    }

    #[test]
    fn analytic_optimum_moves_with_k() {
        let sys = SystemConfig::default();
        let w = k_jump(8.0, 14.0, 1000.0);
        let before = w.analytic_optimum(0.0, &sys, 800);
        let after = w.analytic_optimum(2000.0, &sys, 800);
        assert!(
            after < before,
            "optimum should drop when k rises: {before} -> {after}"
        );
        assert!((20..=800).contains(&before));
    }
}
