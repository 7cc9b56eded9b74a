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
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Data items accessed per transaction, `k(t) ≥ 1`. Evaluated at
    /// instance creation; rounded to an integer.
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
    /// time, `h(t) ≥ 0`. Think delays are multiplied by it, so `0.5`
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// The first field whose schedule leaves the domain the engine runs
    /// it in, as `<field> must …`: at every level, `k` ≥ 1, the
    /// fractions in [0, 1], the skew and the think factor ≥ 0 and the
    /// arrival factor positive, all finite; and no list empty (an empty
    /// `Piecewise` reads 0 forever). Outside it a value would run as
    /// another one.
    pub fn check(&self) -> Result<(), String> {
        let within = |field: &str, s: &Schedule, ok: fn(f64) -> bool, want: &str| {
            let Some(levels) = s.levels() else {
                return Err(format!("{field} must not hold an empty list"));
            };
            match levels.into_iter().find(|&v| !(ok(v) && v.is_finite())) {
                Some(v) => Err(format!(
                    "{field} must be finite and {want} at every level (reaches {v})"
                )),
                None => Ok(()),
            }
        };
        let (fraction, at_least_0) = (|v| (0.0..=1.0).contains(&v), |v| v >= 0.0);
        let (arrival, think) = (&self.arrival_rate_factor, &self.think_time_factor);
        within("k", &self.k, |v| v >= 1.0, "≥ 1")?;
        within("query_frac", &self.query_frac, fraction, "in [0, 1]")?;
        within("write_frac", &self.write_frac, fraction, "in [0, 1]")?;
        within("access_skew", &self.access_skew, at_least_0, "≥ 0")?;
        within("arrival_rate_factor", arrival, |v| v > 0.0, "> 0")?;
        within("think_time_factor", think, at_least_0, "≥ 0")
    }

    /// Samples the schedules at time `t_ms`.
    pub fn at(&self, t_ms: f64) -> WorkloadAt {
        WorkloadAt {
            k: self.k.value(t_ms).round() as u32,
            query_frac: self.query_frac.value(t_ms),
            write_frac: self.write_frac.value(t_ms),
            access_skew: self.access_skew.value(t_ms),
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
        for k in [-3.0, 0.0, 0.49, f64::NAN] {
            let w = WorkloadConfig {
                k: Schedule::Constant(k),
                ..WorkloadConfig::default()
            };
            assert!(w.check().unwrap_err().starts_with("k must"), "k = {k}");
        }
        let dips = WorkloadConfig {
            k: Schedule::Sinusoid {
                mean: 4.0,
                amplitude: 3.5,
                period: 100.0,
            },
            ..WorkloadConfig::default()
        };
        assert!(dips.check().is_err(), "a sinusoid dipping below 1");
        assert_eq!(WorkloadConfig::default().check(), Ok(()));
    }

    #[test]
    fn fractions_outside_the_unit_interval_are_refused() {
        let w = WorkloadConfig {
            query_frac: Schedule::Constant(1.7),
            ..WorkloadConfig::default()
        };
        assert!(w.check().unwrap_err().starts_with("query_frac must"));
        let w = WorkloadConfig {
            write_frac: Schedule::Ramp {
                from: 0.5,
                to: -0.5,
                t_start: 0.0,
                t_end: 10.0,
            },
            ..WorkloadConfig::default()
        };
        assert!(w.check().unwrap_err().starts_with("write_frac must"));
    }

    #[test]
    fn load_factors_default_to_identity() {
        let w = WorkloadConfig::default();
        assert_eq!(w.arrival_rate_factor.value(0.0), 1.0);
        assert_eq!(w.think_time_factor.value(1e9), 1.0);
    }

    #[test]
    fn load_factors_below_their_floor_are_refused() {
        for (w, field) in [
            (
                WorkloadConfig {
                    arrival_rate_factor: Schedule::Constant(0.0),
                    ..WorkloadConfig::default()
                },
                "arrival_rate_factor must",
            ),
            (
                WorkloadConfig {
                    think_time_factor: Schedule::Constant(-1.0),
                    ..WorkloadConfig::default()
                },
                "think_time_factor must",
            ),
            (
                WorkloadConfig {
                    think_time_factor: Schedule::Piecewise(Vec::new()),
                    ..WorkloadConfig::default()
                },
                "think_time_factor must not hold an empty list",
            ),
        ] {
            assert!(w.check().unwrap_err().starts_with(field), "{field}");
        }
        let zero_think = WorkloadConfig {
            think_time_factor: Schedule::Constant(0.0),
            ..WorkloadConfig::default()
        };
        assert_eq!(zero_think.check(), Ok(()), "terminals may resubmit at once");
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
        assert_eq!(w.arrival_rate_factor.value(50_000.0), 1.0);
        assert_eq!(w.arrival_rate_factor.value(110_000.0), 3.0);
        assert_eq!(w.arrival_rate_factor.value(130_000.0), 1.0);
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
