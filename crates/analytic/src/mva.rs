//! Exact Mean Value Analysis for the paper's closed resource network.
//!
//! The physical model of §7 is a closed network: a multiprocessor CPU
//! station (one shared FCFS queue, `m` servers) plus pure-delay stations
//! (the contention-free disk and the terminals). For product-form networks
//! this solves *exactly* with load-dependent MVA (Reiser & Lavenberg):
//! the CPU is a load-dependent station with rate multiplier
//! `α(j) = min(j, m)` and the delays fold into a single think time `Z`.
//!
//! The solver yields the run-completion throughput `X(l)` for every
//! population `l ≤ n` in one `O(n²)` pass. It anchors two things:
//! the OCC throughput model ([`crate::occ`]) and the simulator validation
//! tests (a CC-free simulation must match MVA).

/// A closed single-class network: one multiserver queueing station (the
/// CPU) plus an aggregate pure delay (disk + terminal think time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedNetwork {
    /// Total CPU service demand per run, milliseconds.
    pub cpu_demand: f64,
    /// Number of CPU servers.
    pub cpus: u32,
    /// Total pure-delay demand per run (disk + think), milliseconds.
    pub delay: f64,
}

/// The MVA solution for populations `1..=n`.
#[derive(Debug, Clone)]
pub struct MvaSolution {
    /// `throughput[l-1]` = X(l), runs per millisecond with population `l`.
    pub throughput: Vec<f64>,
    /// `cpu_response[l-1]` = CPU residence time (queue + service) at `l`.
    pub cpu_response: Vec<f64>,
}

impl ClosedNetwork {
    /// Validates and constructs a network.
    pub fn new(cpu_demand: f64, cpus: u32, delay: f64) -> Self {
        assert!(cpu_demand > 0.0 && cpus > 0 && delay >= 0.0);
        ClosedNetwork {
            cpu_demand,
            cpus,
            delay,
        }
    }

    /// Runs exact load-dependent MVA up to population `n`.
    pub fn solve(&self, n: u32) -> MvaSolution {
        let n = n.max(1) as usize;
        let s = self.cpu_demand;
        let m = self.cpus;
        let alpha = |j: usize| f64::from((j as u32).min(m));

        // p_prev[j] = P(j customers at CPU | population l-1)
        let mut p_prev = vec![0.0f64; n + 1];
        p_prev[0] = 1.0;
        let mut throughput = Vec::with_capacity(n);
        let mut cpu_response = Vec::with_capacity(n);

        for l in 1..=n {
            let mut r = 0.0;
            for j in 1..=l {
                r += (j as f64 / alpha(j)) * p_prev[j - 1];
            }
            let r = s * r;
            // Clamp to the balanced-job bounds; the recursion's numerical
            // drift can otherwise exceed the saturation asymptote by ~1e-4.
            let x = (l as f64 / (self.delay + r))
                .min(self.saturation_throughput())
                .min(l as f64 / (self.delay + s));

            let mut p_cur = vec![0.0f64; n + 1];
            let mut tail = 0.0;
            for j in 1..=l {
                p_cur[j] = (s * x / alpha(j)) * p_prev[j - 1];
                tail += p_cur[j];
            }
            if tail > 1.0 {
                // The marginal-probability recurrence accumulates drift near
                // saturation; renormalize instead of clamping to keep the
                // distribution proper.
                for p in p_cur.iter_mut() {
                    *p /= tail;
                }
                p_cur[0] = 0.0;
            } else {
                p_cur[0] = 1.0 - tail;
            }

            throughput.push(x);
            cpu_response.push(r);
            p_prev = p_cur;
        }
        MvaSolution {
            throughput,
            cpu_response,
        }
    }

    /// Throughput at exactly population `n` (runs one MVA pass).
    pub fn throughput(&self, n: u32) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.solve(n).throughput[n as usize - 1]
    }

    /// The asymptotic throughput bound `m / cpu_demand`.
    fn saturation_throughput(&self) -> f64 {
        f64::from(self.cpus) / self.cpu_demand
    }
}

impl MvaSolution {
    /// Throughput at real-valued population `n` by linear interpolation
    /// (X(0) = 0). Saturates at the largest solved population.
    pub fn throughput_at(&self, n: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        let max_l = self.throughput.len() as f64;
        if n >= max_l {
            return self.throughput[self.throughput.len() - 1];
        }
        let lo = n.floor() as usize; // X(lo), lo >= 0
        let frac = n - lo as f64;
        let x_lo = if lo == 0 { 0.0 } else { self.throughput[lo - 1] };
        let x_hi = self.throughput[lo];
        x_lo + (x_hi - x_lo) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_customer_no_queueing() {
        let net = ClosedNetwork::new(40.0, 8, 250.0);
        let sol = net.solve(1);
        // One customer never queues: X(1) = 1/(C + Z).
        assert!((sol.throughput[0] - 1.0 / 290.0).abs() < 1e-12);
        assert!((sol.cpu_response[0] - 40.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_monotone_and_bounded() {
        let net = ClosedNetwork::new(40.0, 8, 250.0);
        let sol = net.solve(500);
        let cap = net.saturation_throughput();
        for w in sol.throughput.windows(2) {
            // Allow the documented tiny numerical dip of the load-dependent
            // recursion (≤ 0.1% relative).
            assert!(
                w[1] >= w[0] * (1.0 - 1e-3),
                "throughput must be (numerically) nondecreasing: {} -> {}",
                w[0],
                w[1]
            );
        }
        for &x in &sol.throughput {
            assert!(x <= cap + 1e-12);
        }
        // Saturates close to the bound for large populations.
        assert!(sol.throughput[499] > 0.999 * cap);
    }

    #[test]
    fn matches_asymptotic_bounds() {
        let net = ClosedNetwork::new(40.0, 8, 250.0);
        let sol = net.solve(100);
        // Light-load bound: X(l) <= l / (C + Z).
        for (i, &x) in sol.throughput.iter().enumerate() {
            let l = (i + 1) as f64;
            assert!(x <= l / 290.0 + 1e-12);
        }
    }

    #[test]
    fn single_server_closed_mm1_known_value() {
        // One CPU, demand 1, think 1: balanced machine-repairman.
        // For l=2: R(2) = S(1 + Q1(1)); Q1(1) = X(1)*R(1) = (1/2)*1 = 0.5
        // R(2) = 1.5, X(2) = 2/(1+1.5) = 0.8
        let net = ClosedNetwork::new(1.0, 1, 1.0);
        let sol = net.solve(2);
        assert!((sol.throughput[0] - 0.5).abs() < 1e-12);
        assert!((sol.throughput[1] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn more_cpus_more_throughput_midrange() {
        let x4 = ClosedNetwork::new(40.0, 4, 250.0).throughput(60);
        let x8 = ClosedNetwork::new(40.0, 8, 250.0).throughput(60);
        assert!(x8 > x4);
    }

    #[test]
    fn interpolation_is_sane() {
        let net = ClosedNetwork::new(40.0, 8, 250.0);
        let sol = net.solve(100);
        assert_eq!(sol.throughput_at(0.0), 0.0);
        let x10 = sol.throughput[9];
        assert!((sol.throughput_at(10.0) - x10).abs() < 1e-12);
        let mid = sol.throughput_at(10.5);
        assert!(mid >= x10 && mid <= sol.throughput[10]);
        // Beyond the table: clamps to the last value.
        assert_eq!(sol.throughput_at(1e9), sol.throughput[99]);
    }

    #[test]
    fn pure_delay_network_is_linear() {
        // With a huge number of CPUs nothing ever queues.
        let net = ClosedNetwork::new(10.0, 10_000, 90.0);
        let sol = net.solve(50);
        for (i, &x) in sol.throughput.iter().enumerate() {
            let l = (i + 1) as f64;
            assert!((x - l / 100.0).abs() < 1e-9);
        }
    }
}
