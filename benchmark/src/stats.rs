//! Order statistics and the FNV-1a digest the output checks use.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks. Panics on an empty slice: every caller has at
/// least one pass or trial by construction.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Sample count, median and quartiles of one metric's repetitions, as
/// printed beside every metric line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Summary {
            n: values.len(),
            q1: quantile(values, 0.25),
            median: median(values),
            q3: quantile(values, 0.75),
        }
    }
}

/// 64-bit FNV-1a, fed incrementally: the digest of every emitted output
/// byte, and of the frozen inputs in `MANIFEST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn digest(self) -> u64 {
        self.0
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.update(bytes);
        h.digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.01);
        assert_eq!(median(&[7.0]), 7.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(Fnv1a::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), Fnv1a::of(b"foobar"));
    }
}
