//! An optimistic-CC conflict/throughput model (after Dan, Towsley &
//! Kohler, ICDE 1988, reduced to a self-consistent mean-value fixed
//! point).
//!
//! The paper's simulator runs timestamp certification — a non-blocking
//! scheme where data contention is resolved by abort/restart, so "data
//! contention is resolved by increased resource contention" (§1). The
//! model:
//!
//! * each transaction accesses `k` items out of `D`; an updater (fraction
//!   `1 − q`) writes a fraction `w` of its accesses, giving the conflict
//!   pressure `c = k²·w·(1−q)/D` per concurrently *committing* run;
//! * only committed writers invalidate others, and the commit rate itself
//!   falls with contention, so the expected certification conflicts per
//!   run solve the fixed point `λ = c·(n−1)·e^{−λ}`, i.e.
//!   `λ(n) = W₀(c·(n−1))` (Lambert W) — *self-limiting* contention, which
//!   matches the simulator's measured abort ratios closely;
//! * a run commits with probability `σ(n) = e^{−λ(n)}`; a commit costs
//!   `1/σ(n)` runs of resources;
//! * run-completion throughput `X(n)` comes from exact MVA on the closed
//!   resource network ([`crate::mva`]): aborted runs consume the same
//!   resources as committing ones;
//! * goodput is `T(n) = X(n)·σ(n)`.
//!
//! Consequence (visible in both model and simulator): with *unlimited*
//! resources, abort-based CC alone does not thrash — exactly the paper's
//! remark that "only in an ideal system with unlimited capacity, thrashing
//! can be avoided". The throughput peak sits near the resource saturation
//! knee and the post-knee decay steepens with the conflict pressure, so
//! the optimum's position and height both move when `k`, `q`, `w` (which
//! shift demand and pressure) change.

use crate::lambert::lambert_w0;
use crate::mva::{ClosedNetwork, MvaSolution};

/// Parameters of the optimistic-CC throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccModel {
    /// Data items accessed per transaction (`k`).
    pub k: u32,
    /// Database size in items (`D`).
    pub db_size: u64,
    /// Fraction of transactions that are read-only queries (`q`).
    pub query_frac: f64,
    /// Fraction of an updater's accesses that are writes (`w`).
    pub write_frac: f64,
    /// Total CPU demand of one run, milliseconds.
    pub cpu_per_run: f64,
    /// Total (contention-free) disk time of one run, milliseconds.
    pub io_per_run: f64,
    /// Number of CPUs (`m`).
    pub cpus: u32,
}

impl OccModel {
    /// Validates and constructs the model.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        k: u32,
        db_size: u64,
        query_frac: f64,
        write_frac: f64,
        cpu_per_run: f64,
        io_per_run: f64,
        cpus: u32,
    ) -> Self {
        assert!(k > 0 && db_size > 0 && cpus > 0);
        assert!((0.0..=1.0).contains(&query_frac));
        assert!((0.0..=1.0).contains(&write_frac));
        assert!(cpu_per_run > 0.0 && io_per_run >= 0.0);
        OccModel {
            k,
            db_size,
            query_frac,
            write_frac,
            cpu_per_run,
            io_per_run,
            cpus,
        }
    }

    /// The conflict pressure `c = k²·w·(1−q)/D`: raw invalidations per
    /// (run, committing-writer) pair.
    fn conflict_pressure(&self) -> f64 {
        let k = f64::from(self.k);
        k * k * self.write_frac * (1.0 - self.query_frac) / self.db_size as f64
    }

    /// Expected certification conflicts per run at MPL `n`, from the
    /// self-limiting fixed point `λ = c·(n−1)·e^{−λ}`.
    fn conflicts_per_run(&self, n: f64) -> f64 {
        if n <= 1.0 {
            return 0.0;
        }
        lambert_w0(self.conflict_pressure() * (n - 1.0))
    }

    /// Probability a run survives certification, `σ(n) = exp(−λ(n))`.
    fn commit_probability(&self, n: f64) -> f64 {
        (-self.conflicts_per_run(n)).exp()
    }

    /// The underlying closed resource network (CPU station + disk delay).
    fn network(&self) -> ClosedNetwork {
        ClosedNetwork::new(self.cpu_per_run, self.cpus, self.io_per_run)
    }

    /// Solves the resource network and returns an evaluable goodput curve
    /// for MPLs up to `n_max`. The MVA pass is `O(n_max²)`; do it once and
    /// reuse the curve.
    pub fn curve(&self, n_max: u32) -> OccCurve {
        OccCurve {
            model: *self,
            mva: self.network().solve(n_max),
            n_max,
        }
    }
}

/// The *effective* database size under Zipf-skewed access with exponent
/// `theta` over `db_size` items: `1 / Σᵢ pᵢ²`, the inverse collision
/// probability of two independent accesses. With `theta = 0` this is
/// exactly `db_size`; skew concentrates accesses on hot items and shrinks
/// the effective size, raising the conflict pressure — the mechanism the
/// paper excludes ("no hot spots") and our hot-spot extension measures.
/// The first 10⁴ items are summed term by term, the rest in closed form,
/// so a database of 10¹² items costs no more than one of 10⁴.
pub fn effective_db_size(db_size: u64, theta: f64) -> f64 {
    assert!(db_size > 0);
    assert!(theta >= 0.0);
    if theta == 0.0 {
        return db_size as f64;
    }
    // p_i ∝ 1/i^theta, i = 1..=D.
    let mut norm = 0.0;
    let mut sq = 0.0;
    for i in 1..=db_size.min(EXACT_TERMS) {
        let p = 1.0 / (i as f64).powf(theta);
        norm += p;
        sq += p * p;
    }
    if db_size > EXACT_TERMS {
        norm += power_sum_tail(EXACT_TERMS + 1, db_size, theta);
        sq += power_sum_tail(EXACT_TERMS + 1, db_size, 2.0 * theta);
    }
    let collision = sq / (norm * norm);
    1.0 / collision
}

/// The items [`effective_db_size`] sums term by term; every checked-in
/// spec's database is smaller, so its value is the plain sum.
const EXACT_TERMS: u64 = 10_000;

/// `Σ_{i=a}^{b} i^(−s)` by Euler–Maclaurin through the third derivative.
/// The integral is `a^(1−s) · expm1((1−s)·ln(b/a)) / (1−s)`, accurate as
/// `s` nears 1, and `ln(b/a)` at `s = 1`.
fn power_sum_tail(a: u64, b: u64, s: f64) -> f64 {
    let (a, b) = (a as f64, b as f64);
    let f = |x: f64| x.powf(-s);
    let d1 = |x: f64| -s * x.powf(-s - 1.0);
    let d3 = |x: f64| -s * (s + 1.0) * (s + 2.0) * x.powf(-s - 3.0);
    let span = (b / a).ln();
    let integral = if s == 1.0 {
        span
    } else {
        a.powf(1.0 - s) * ((1.0 - s) * span).exp_m1() / (1.0 - s)
    };
    integral + (f(a) + f(b)) / 2.0 + (d1(b) - d1(a)) / 12.0 - (d3(b) - d3(a)) / 720.0
}

/// A solved OCC goodput curve: combines the MVA run-throughput table with
/// the certification survival probability.
#[derive(Debug, Clone)]
pub struct OccCurve {
    model: OccModel,
    mva: MvaSolution,
    n_max: u32,
}

impl OccCurve {
    /// The model this curve was solved from.
    pub fn model(&self) -> &OccModel {
        &self.model
    }

    /// Run-completion throughput (runs per ms, committing or not).
    fn run_throughput(&self, n: f64) -> f64 {
        self.mva.throughput_at(n)
    }

    /// Goodput: committed transactions per millisecond.
    pub fn throughput(&self, n: f64) -> f64 {
        self.run_throughput(n) * self.model.commit_probability(n)
    }

    /// The integer MPL maximizing goodput over `[1, n_max]`.
    pub fn optimal_mpl(&self) -> u32 {
        grid_max_u32(|n| self.throughput(f64::from(n)), 1, self.n_max).0
    }
}

/// Exhaustive integer grid scan for the maximum over `lo..=hi`. Ties are
/// resolved toward the smallest argument, which is what an MPL bound
/// should prefer (less admitted load for equal performance).
fn grid_max_u32(mut f: impl FnMut(u32) -> f64, lo: u32, hi: u32) -> (u32, f64) {
    assert!(hi >= lo);
    let mut best = (lo, f(lo));
    for n in (lo + 1)..=hi {
        let v = f(n);
        if v > best.1 {
            best = (n, v);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test calibration mirroring the simulator's: CPU scales with k
    /// (4 ms/phase over k+2 phases), disk is dominated by fixed
    /// init/commit I/O (2×150 ms) plus 4 ms per access.
    fn model_for_k(k: u32, write_frac: f64) -> OccModel {
        let cpu = 4.0 * f64::from(k + 2);
        let io = 300.0 + 4.0 * f64::from(k);
        OccModel::new(k, 2000, 0.2, write_frac, cpu, io, 16)
    }

    fn base() -> OccModel {
        model_for_k(8, 0.25)
    }

    /// Goodput at the curve's optimal MPL.
    fn peak_goodput(curve: &OccCurve) -> f64 {
        curve.throughput(f64::from(curve.optimal_mpl()))
    }

    #[test]
    fn no_conflicts_alone() {
        let m = base();
        assert_eq!(m.conflicts_per_run(1.0), 0.0);
        assert_eq!(m.commit_probability(1.0), 1.0);
    }

    #[test]
    fn conflicts_grow_sublinearly() {
        // Self-limiting: λ(n) grows, but slower than the raw pressure.
        let m = base();
        let l50 = m.conflicts_per_run(51.0);
        let l100 = m.conflicts_per_run(101.0);
        let l200 = m.conflicts_per_run(201.0);
        assert!(l50 < l100 && l100 < l200);
        assert!(l200 / l100 < 2.0, "must be sublinear: {l100} -> {l200}");
        // And below the raw (non-limited) pressure.
        assert!(l100 < m.conflict_pressure() * 100.0);
    }

    #[test]
    fn fixed_point_identity() {
        // λ = c·(n−1)·e^{−λ} must hold at the reported λ.
        let m = base();
        for &n in &[2.0, 10.0, 100.0, 500.0] {
            let l = m.conflicts_per_run(n);
            let rhs = m.conflict_pressure() * (n - 1.0) * (-l).exp();
            assert!((l - rhs).abs() < 1e-9, "fixed point broken at n={n}");
        }
    }

    #[test]
    fn read_only_workload_never_aborts() {
        let m = OccModel::new(8, 2000, 1.0, 0.4, 40.0, 300.0, 16);
        assert_eq!(m.commit_probability(500.0), 1.0);
    }

    #[test]
    fn throughput_shape_is_thrashing() {
        let curve = model_for_k(8, 0.4).curve(800);
        let peak = curve.optimal_mpl();
        assert!((60..400).contains(&peak), "peak at implausible MPL {peak}");
        // Underload region roughly linear: T(20)/T(10) close to 2.
        let ratio = curve.throughput(20.0) / curve.throughput(10.0);
        assert!((ratio - 2.0).abs() < 0.3, "underload ratio {ratio}");
        // Overload: clear drop at the end of the load axis.
        let at_peak = peak_goodput(&curve);
        let at_end = curve.throughput(800.0);
        assert!(
            at_end < 0.75 * at_peak,
            "no thrashing drop: peak {at_peak}, end {at_end}"
        );
    }

    #[test]
    fn larger_k_lowers_optimum_position() {
        // The paper's §8 claim, with the simulator's calibration: CPU
        // scales with k while disk is mostly fixed, so the saturation
        // knee — and with it the optimum — moves down as k rises.
        let small = model_for_k(8, 0.25).curve(800);
        let large = model_for_k(16, 0.25).curve(800);
        assert!(
            large.optimal_mpl() + 20 <= small.optimal_mpl(),
            "k=16 optimum {} should sit well below k=8 optimum {}",
            large.optimal_mpl(),
            small.optimal_mpl()
        );
        // Height drops too ("significant impact on both height and
        // position", §8).
        assert!(peak_goodput(&large) < peak_goodput(&small));
    }

    #[test]
    fn heavier_writes_lower_peak_height() {
        let light = model_for_k(8, 0.10).curve(800);
        let heavy = model_for_k(8, 0.90).curve(800);
        assert!(peak_goodput(&heavy) < peak_goodput(&light));
        assert!(heavy.optimal_mpl() <= light.optimal_mpl());
        // And the thrashing flank is steeper under heavy writes.
        let rel_light = light.throughput(800.0) / peak_goodput(&light);
        let rel_heavy = heavy.throughput(800.0) / peak_goodput(&heavy);
        assert!(rel_heavy < rel_light);
    }

    #[test]
    fn wasted_fraction_monotone() {
        // The share of runs that abort, 1 − σ(n), grows with the MPL.
        let m = base();
        let w: Vec<f64> = [1.0, 50.0, 200.0, 800.0]
            .iter()
            .map(|&n| 1.0 - m.commit_probability(n))
            .collect();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!(w[0], 0.0);
    }

    #[test]
    fn effective_db_size_properties() {
        // No skew: exactly D.
        assert_eq!(effective_db_size(1000, 0.0), 1000.0);
        // Skew shrinks the effective size monotonically.
        let d0 = effective_db_size(1000, 0.2);
        let d1 = effective_db_size(1000, 0.8);
        let d2 = effective_db_size(1000, 1.2);
        assert!(d0 < 1000.0);
        assert!(d1 < d0 && d2 < d1, "{d0} {d1} {d2}");
        // Extreme skew approaches a handful of hot items.
        assert!(effective_db_size(1000, 3.0) < 10.0);
    }

    /// The closed tail against the term-by-term sum it replaces, across
    /// both logarithmic cases (θ = 1 for the norm, θ = 0.5 for the
    /// squares), and a database too large to loop over.
    #[test]
    fn effective_db_size_tail_matches_the_exact_sum() {
        let exact = |n: u64, theta: f64| {
            let (mut norm, mut sq) = (0.0, 0.0);
            for i in 1..=n {
                let p = 1.0 / (i as f64).powf(theta);
                norm += p;
                sq += p * p;
            }
            1.0 / (sq / (norm * norm))
        };
        let n = 4 * EXACT_TERMS;
        for theta in [0.1, 0.5, 0.8, 0.99, 1.0, 1.0 + 1e-12, 1.2, 2.0, 3.0] {
            let (closed, looped) = (effective_db_size(n, theta), exact(n, theta));
            let rel = (closed - looped).abs() / looped;
            assert!(rel < 1e-9, "θ = {theta}: {closed} vs {looped} ({rel:e})");
        }
        assert_eq!(effective_db_size(EXACT_TERMS, 0.7), exact(EXACT_TERMS, 0.7));
        let huge = effective_db_size(1_000_000_000_000, 0.99);
        assert!(huge.is_finite() && huge > 1.0 && huge < 1e12, "{huge}");
    }

    #[test]
    fn curve_matches_model_at_integer_points() {
        let m = base();
        let curve = m.curve(100);
        let net = m.network();
        let x50 = net.throughput(50);
        assert!((curve.run_throughput(50.0) - x50).abs() < 1e-12);
    }

    #[test]
    fn grid_max_finds_peak_and_prefers_smaller_tie() {
        let (n, v) = grid_max_u32(|n| if n == 5 || n == 7 { 10.0 } else { 0.0 }, 1, 10);
        assert_eq!(n, 5);
        assert_eq!(v, 10.0);
    }

    #[test]
    fn grid_max_single_point() {
        let (n, v) = grid_max_u32(f64::from, 4, 4);
        assert_eq!((n, v), (4, 4.0));
    }
}
