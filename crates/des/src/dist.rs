//! Service-time and think-time distributions.
//!
//! The paper's physical model needs three of these directly — constant disk
//! service, exponential CPU bursts, exponential think times — and the rest
//! round out what a workload-sensitivity study reaches for (Erlang for
//! low-variance service, hyperexponential for bursty service, Zipf for the
//! hot-spot access extension the paper explicitly excludes but we test
//! against).

use crate::rng::RngStream;

/// Something that can be sampled to a non-negative duration/value.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut RngStream) -> f64;

    /// The distribution's mean: the expected demands of
    /// `SystemConfig::cpu_per_run_ms` / `disk_per_run_ms`, the spec
    /// reader's positive-mean checks, and tests and analytic cross-checks.
    fn mean(&self) -> f64;
}

/// A fixed value (the paper's disk subsystem: "constant service times and no
/// contention").
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Constant(pub f64);

impl Sample for Constant {
    #[inline]
    fn sample(&self, _rng: &mut RngStream) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Sample for Uniform {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        rng.uniform(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Exponential with the given mean (CPU bursts, think times).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Exponential {
    /// Mean of the distribution (1/rate).
    pub mean: f64,
}

impl Exponential {
    /// Constructs from a mean. Panics if the mean is not positive.
    fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive");
        Exponential { mean }
    }
}

impl Sample for Exponential {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        // Inverse CDF; 1 - u avoids ln(0).
        -self.mean * (1.0 - rng.uniform01()).ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Erlang-k: sum of `k` independent exponentials; coefficient of variation
/// `1/sqrt(k)` — a low-variance service time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Erlang {
    /// Number of exponential stages (k ≥ 1).
    pub stages: u32,
    /// Mean of the whole distribution.
    pub mean: f64,
}

impl Sample for Erlang {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        assert!(self.stages >= 1);
        let stage_mean = self.mean / f64::from(self.stages);
        // Product-of-uniforms form: one log instead of k.
        let mut prod = 1.0;
        for _ in 0..self.stages {
            prod *= 1.0 - rng.uniform01();
        }
        -stage_mean * prod.ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Two-branch hyperexponential: with probability `p` the mean is `mean_a`,
/// otherwise `mean_b`. Coefficient of variation > 1 — a bursty service time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HyperExp {
    /// Probability of drawing from branch A.
    pub p: f64,
    /// Mean of branch A.
    pub mean_a: f64,
    /// Mean of branch B.
    pub mean_b: f64,
}

impl Sample for HyperExp {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        let mean = if rng.chance(self.p) {
            self.mean_a
        } else {
            self.mean_b
        };
        -mean * (1.0 - rng.uniform01()).ln()
    }
    fn mean(&self) -> f64 {
        self.p * self.mean_a + (1.0 - self.p) * self.mean_b
    }
}

/// Exponential with the given mean, sampled via the Marsaglia–Tsang
/// ziggurat — same distribution as [`Exponential`], different (and
/// `ln()`-free) draw path.
///
/// The inverse-CDF sampler pays one `ln()` per draw — the single biggest
/// per-event cost left in the simulator hot path (think, CPU and open
/// arrivals all draw exponentials). The ziggurat's common case (~98.5% of
/// draws) is one 64-bit draw, a table lookup, one multiply and one
/// compare; edge rectangles pay an `exp()`, and the tail recurses on the
/// memoryless property (`tail = R + Exp`) so no draw ever calls `ln()`.
/// Tables are built once per process (`OnceLock`) and shared by every
/// stream.
///
/// The draw *sequence* differs from [`Exponential`] for the same RNG
/// stream, so swapping a config to `ExpZig` changes the realization
/// (never the distribution). The default experiment configs keep the
/// inverse-CDF sampler so the golden pins stay byte-identical; scenario
/// specs opt in per distribution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExpZig {
    /// Mean of the distribution (1/rate).
    pub mean: f64,
}

impl ExpZig {
    /// Constructs from a mean. Panics if the mean is not positive.
    fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0, "exponential mean must be positive");
        ExpZig { mean }
    }
}

/// Number of ziggurat layers.
const ZIG_N: usize = 256;
/// Rightmost layer edge `R` of the 256-layer exponential ziggurat.
const ZIG_R: f64 = 7.697_117_470_131_05;
/// Common layer area `V` (including the tail beyond `R`).
const ZIG_V: f64 = 0.003_949_659_822_581_557;

struct ZigTables {
    /// Layer edges `x[i]`; `x[0]` is the virtual edge `V/f(R)`, `x[1] = R`.
    x: [f64; ZIG_N + 1],
    /// Density at the edges, `f(x[i]) = e^(−x[i])`.
    f: [f64; ZIG_N + 1],
}

fn zig_tables() -> &'static ZigTables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; ZIG_N + 1];
        let mut f = [0.0f64; ZIG_N + 1];
        x[0] = ZIG_V * ZIG_R.exp(); // V / f(R)
        x[1] = ZIG_R;
        f[0] = (-x[0]).exp();
        f[1] = (-ZIG_R).exp();
        for i in 2..ZIG_N {
            // Each layer has area V: x[i] solves f(x[i]) = f(x[i-1]) + V/x[i-1].
            x[i] = -(ZIG_V / x[i - 1] + f[i - 1]).ln();
            f[i] = (-x[i]).exp();
        }
        x[ZIG_N] = 0.0;
        f[ZIG_N] = 1.0;
        ZigTables { x, f }
    })
}

/// One standard (mean 1) exponential draw via the ziggurat.
#[inline]
fn zig_standard_exp(rng: &mut RngStream) -> f64 {
    let tables = zig_tables();
    let mut offset = 0.0;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // 53-bit uniform in [0, 1) from the top bits.
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let x = u * tables.x[i];
        if x < tables.x[i + 1] {
            return offset + x; // inside the layer rectangle: accept
        }
        if i == 0 {
            // Tail beyond R: memoryless, so tail = R + Exp. Re-run the
            // whole ziggurat with the offset advanced — no ln() needed.
            offset += ZIG_R;
            continue;
        }
        // Edge sliver: accept against the true density.
        let v = rng.uniform01();
        if tables.f[i] + v * (tables.f[i + 1] - tables.f[i]) < (-x).exp() {
            return offset + x;
        }
    }
}

impl Sample for ExpZig {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.mean * zig_standard_exp(rng)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// A distribution choice, serializable for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Dist {
    /// Fixed value.
    Constant(Constant),
    /// Uniform interval.
    Uniform(Uniform),
    /// Exponential.
    Exponential(Exponential),
    /// Exponential via the ln()-free ziggurat sampler.
    ExpZig(ExpZig),
    /// Erlang-k.
    Erlang(Erlang),
    /// Two-branch hyperexponential.
    HyperExp(HyperExp),
}

impl Dist {
    /// Shorthand for a constant distribution.
    pub fn constant(v: f64) -> Self {
        Dist::Constant(Constant(v))
    }
    /// Shorthand for an exponential with the given mean. Draws via the
    /// ln()-free ziggurat sampler — the default since its promotion
    /// (same distribution as [`Dist::exponential_inverse`], different
    /// realization per seed; goldens were re-blessed with the switch).
    pub fn exponential(mean: f64) -> Self {
        Dist::ExpZig(ExpZig::with_mean(mean))
    }
    /// Shorthand for the inversion-sampled (`-mean·ln(u)`) exponential.
    pub fn exponential_inverse(mean: f64) -> Self {
        Dist::Exponential(Exponential::with_mean(mean))
    }
    /// The value every draw returns, if this is a [`Dist::Constant`]: a
    /// delay that can ride a calendar lane
    /// ([`Calendar::lane`](crate::Calendar::lane)). A degenerate
    /// `Uniform { lo: d, hi: d }` is not one: it returns `d` too, but
    /// consumes a draw each time.
    pub fn as_constant(&self) -> Option<f64> {
        match self {
            Dist::Constant(Constant(v)) => Some(*v),
            _ => None,
        }
    }
}

impl Sample for Dist {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        match self {
            Dist::Constant(d) => d.sample(rng),
            Dist::Uniform(d) => d.sample(rng),
            Dist::Exponential(d) => d.sample(rng),
            Dist::ExpZig(d) => d.sample(rng),
            Dist::Erlang(d) => d.sample(rng),
            Dist::HyperExp(d) => d.sample(rng),
        }
    }
    #[inline]
    fn mean(&self) -> f64 {
        match self {
            Dist::Constant(d) => d.mean(),
            Dist::Uniform(d) => d.mean(),
            Dist::Exponential(d) => d.mean(),
            Dist::ExpZig(d) => d.mean(),
            Dist::Erlang(d) => d.mean(),
            Dist::HyperExp(d) => d.mean(),
        }
    }
}

/// Zipf-like discrete distribution over `[0, n)` with exponent `theta`,
/// via rejection-inversion (Hörmann). Used by the hot-spot access-pattern
/// extension; `theta = 0` degenerates to the paper's uniform selection.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed constants of the rejection-inversion sampler.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipf sampler over `[0, n)` with skew `theta ∈ [0, 1)∪(1, …)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!(theta >= 0.0 && (theta - 1.0).abs() > 1e-9, "theta == 1 unsupported");
        let h = |x: f64| ((x + 1.0).powf(1.0 - theta) - 1.0) / (1.0 - theta);
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - {
            // h^-1(h(2.5) - 2^-theta) ... constant from Hörmann's paper
            let v = h(2.5) - (2.0f64).powf(-theta);
            ((1.0 - theta) * v + 1.0).powf(1.0 / (1.0 - theta)) - 1.0
        };
        Zipf { n, theta, h_x1, h_n, s }
    }

    /// Draws one value in `[0, n)`; smaller values are more popular.
    #[inline]
    pub fn sample(&self, rng: &mut RngStream) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.n);
        }
        let h_inv = |v: f64| ((1.0 - self.theta) * v + 1.0).powf(1.0 / (1.0 - self.theta)) - 1.0;
        loop {
            let u = self.h_x1 + rng.uniform01() * (self.h_n - self.h_x1);
            let x = h_inv(u);
            let k = (x + 0.5).floor().max(1.0);
            let h_k = |x: f64| ((x + 1.0).powf(1.0 - self.theta) - 1.0) / (1.0 - self.theta);
            if k - x <= self.s || u >= h_k(k + 0.5) - k.powf(-self.theta) {
                let idx = k as u64;
                if idx >= 1 && idx <= self.n {
                    return idx - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    fn mean_of(d: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = RngStream::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = RngStream::from_seed(1);
        let d = Constant(25.0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 25.0);
        }
        assert_eq!(d.mean(), 25.0);
    }

    /// Only a draw-free distribution may ride a calendar lane. The
    /// degenerate uniform returns its one value exactly and still draws:
    /// the engine's lane-against-rung test is built on that pair.
    #[test]
    fn as_constant_is_for_constants_only() {
        assert_eq!(Dist::constant(4.0).as_constant(), Some(4.0));
        assert_eq!(Dist::exponential(4.0).as_constant(), None);
        let degenerate = Dist::Uniform(Uniform { lo: 4.0, hi: 4.0 });
        assert_eq!(degenerate.as_constant(), None);
        let (mut rng, mut untouched) = (RngStream::from_seed(1), RngStream::from_seed(1));
        assert_eq!(degenerate.sample(&mut rng), 4.0);
        assert_eq!(Dist::constant(4.0).sample(&mut untouched), 4.0);
        assert_ne!(rng.next_u64(), untouched.next_u64(), "the uniform drew");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(10.0);
        let m = mean_of(&d, 11, 200_000);
        assert!((m - 10.0).abs() < 0.15, "sample mean {m}");
    }

    #[test]
    fn default_exponential_is_ziggurat_with_sane_moments() {
        // The ziggurat promotion: `Dist::exponential` must be the zig
        // draw path, and its first two moments must match the
        // distribution it replaced (mean m, variance m²).
        let d = Dist::exponential(10.0);
        assert!(matches!(d, Dist::ExpZig(_)), "default is not ExpZig: {d:?}");
        assert_eq!(d.mean(), 10.0);
        let mut rng = RngStream::from_seed(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        let m = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 10.0).abs() < 0.15, "sample mean {m}");
        assert!((var - 100.0).abs() < 3.0, "sample variance {var}");
        // And the inversion sampler stays available, same moments.
        let inv = Dist::exponential_inverse(10.0);
        assert!(matches!(inv, Dist::Exponential(_)));
        let mi = mean_of(&inv, 11, 200_000);
        assert!((mi - 10.0).abs() < 0.15, "inverse sample mean {mi}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::with_mean(1.0);
        let mut rng = RngStream::from_seed(12);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform { lo: 2.0, hi: 6.0 };
        let mut rng = RngStream::from_seed(13);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let m = mean_of(&d, 14, 100_000);
        assert!((m - 4.0).abs() < 0.05, "sample mean {m}");
    }

    #[test]
    fn erlang_mean_and_lower_variance() {
        let d = Erlang { stages: 4, mean: 8.0 };
        let mut rng = RngStream::from_seed(15);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m - 8.0).abs() < 0.1, "mean {m}");
        // Erlang-4 variance = mean^2 / 4 = 16
        assert!((var - 16.0).abs() < 1.0, "variance {var}");
    }

    #[test]
    fn hyperexp_mean() {
        let d = HyperExp { p: 0.9, mean_a: 1.0, mean_b: 20.0 };
        assert!((d.mean() - 2.9).abs() < 1e-12);
        let m = mean_of(&d, 16, 300_000);
        assert!((m - 2.9).abs() < 0.1, "sample mean {m}");
    }

    #[test]
    fn expzig_matches_exponential_moments() {
        // Same distribution as the inverse-CDF sampler: mean, variance
        // and the e^{-1} upper-tail mass must all line up with theory.
        let d = ExpZig::with_mean(10.0);
        let mut rng = RngStream::from_seed(21);
        let n = 300_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 0.0));
        let m: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        let tail = samples.iter().filter(|&&x| x > 10.0).count() as f64 / n as f64;
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        assert!((var - 100.0).abs() < 3.0, "variance {var}");
        assert!(
            (tail - (-1.0f64).exp()).abs() < 0.01,
            "P(X > mean) = {tail}, expected ~0.3679"
        );
    }

    #[test]
    fn expzig_tail_region_is_reachable_and_finite() {
        // Force enough draws that the ziggurat tail (x > R ≈ 7.7 means,
        // probability e^{-7.7} ≈ 4.5e-4) fires and stays finite.
        let d = ExpZig::with_mean(1.0);
        let mut rng = RngStream::from_seed(22);
        let n = 200_000;
        let deep = (0..n)
            .map(|_| d.sample(&mut rng))
            .filter(|&x| x > 7.697_117_470_131_05)
            .count();
        assert!(deep > 20, "tail never sampled ({deep} hits)");
        assert!(deep < 400, "tail oversampled ({deep} hits)");
    }

    #[test]
    fn expzig_is_deterministic_per_seed() {
        let d = Dist::exponential(5.0);
        let draw = |seed| {
            let mut rng = RngStream::from_seed(seed);
            (0..100).map(|_| d.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn dist_enum_dispatch() {
        let d = Dist::exponential(5.0);
        assert_eq!(d.mean(), 5.0);
        let c = Dist::constant(3.0);
        let mut rng = RngStream::from_seed(17);
        assert_eq!(c.sample(&mut rng), 3.0);
    }

    #[test]
    fn zipf_uniform_degenerate() {
        let z = Zipf::new(100, 0.0);
        let mut rng = RngStream::from_seed(18);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            let v = z.sample(&mut rng);
            assert!(v < 100);
            seen.insert(v);
        }
        assert!(seen.len() > 90, "uniform should cover most of the range");
    }

    #[test]
    fn zipf_skews_to_small_values() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = RngStream::from_seed(19);
        let n = 50_000;
        let small = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // With theta≈1, the first 10% of items draw well over half the mass.
        assert!(
            small as f64 > 0.5 * n as f64,
            "only {small}/{n} samples in the hot range"
        );
    }

    #[test]
    fn zipf_values_in_range() {
        let z = Zipf::new(10, 0.8);
        let mut rng = RngStream::from_seed(20);
        for _ in 0..20_000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }
}
