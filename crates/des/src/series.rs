//! Time-series recording.
//!
//! Every figure in the paper is either a curve (performance vs load) or a
//! trajectory (load bound vs time). [`TimeSeries`] accumulates `(t, value)`
//! points during a run; the scenario runner and the figure catalog turn
//! them into aligned tables and CSV files.

use crate::time::SimTime;

/// A named sequence of `(time, value)` samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0)
    }

    /// Creates an empty series with room for `cap` samples — used by the
    /// simulator to size trajectory buffers from the run configuration so
    /// recording never reallocates mid-run.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::with_capacity(cap),
        }
    }

    /// Ensures room for at least `additional` further samples.
    pub fn reserve(&mut self, additional: usize) {
        self.points.reserve(additional);
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples must be pushed in non-decreasing time
    /// order (the simulator guarantees this naturally).
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last_t, _)) = self.points.last() {
            debug_assert!(t.millis() >= last_t, "series must be time-ordered");
        }
        self.points.push((t.millis(), v));
    }

    /// The recorded points as `(millis, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of the values over the final `fraction` of samples — used to
    /// report steady-state levels of a trajectory (e.g. "where did the bound
    /// settle after the jump").
    pub fn tail_mean(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction));
        if self.points.is_empty() {
            return f64::NAN;
        }
        let skip = ((1.0 - fraction) * self.points.len() as f64) as usize;
        let tail = &self.points[skip.min(self.points.len() - 1)..];
        tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64
    }

    /// Value at time `t` under sample-and-hold interpolation (the bound
    /// `n*` is piecewise constant between controller decisions).
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        let ms = t.millis();
        match self.points.binary_search_by(|&(pt, _)| {
            pt.partial_cmp(&ms).expect("series times are never NaN")
        }) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Renders `t,value` CSV lines (with a header) into a string buffer.
    /// The buffer is *appended to*, so callers looping over many series
    /// can reuse one allocation across calls.
    pub fn render_csv_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.reserve(16 + self.points.len() * 16);
        let _ = writeln!(out, "t_ms,{}", self.name);
        for &(t, v) in &self.points {
            let _ = writeln!(out, "{t},{v}");
        }
    }

    /// Writes `t,value` CSV lines (with a header) to a writer: the whole
    /// table is rendered into one buffer and written with a single call,
    /// so per-row formatting never reaches the writer (or a syscall).
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut buf = String::new();
        self.render_csv_into(&mut buf);
        w.write_all(buf.as_bytes())
    }
}

/// Renders several series sharing a time axis as one CSV table, appended
/// to `out`. Series are aligned on the time points of the first series
/// using sample-and-hold.
fn render_aligned_csv_into(out: &mut String, series: &[&TimeSeries]) {
    use std::fmt::Write as _;
    let Some(first) = series.first() else {
        return;
    };
    out.reserve(first.len() * 16 * series.len().max(1));
    out.push_str("t_ms");
    for s in series {
        let _ = write!(out, ",{}", s.name());
    }
    out.push('\n');
    for &(t, _) in first.points() {
        let _ = write!(out, "{t}");
        for s in series {
            match s.value_at(SimTime::new(t)) {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
}

/// Writes several series sharing a time axis as one CSV table, aligned
/// on the time points of the first series using sample-and-hold; the
/// whole table goes to the writer in a single call.
pub fn write_aligned_csv<W: std::io::Write>(
    mut w: W,
    series: &[&TimeSeries],
) -> std::io::Result<()> {
    let mut buf = String::new();
    render_aligned_csv_into(&mut buf, series);
    w.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::new(ms)
    }

    fn series(name: &str, pts: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for &(tt, v) in pts {
            s.push(t(tt), v);
        }
        s
    }

    #[test]
    fn push_and_read() {
        let s = series("x", &[(0.0, 1.0), (10.0, 2.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.last_value(), Some(2.0));
        assert_eq!(s.points()[1], (10.0, 2.0));
    }

    #[test]
    fn sample_and_hold_lookup() {
        let s = series("x", &[(10.0, 1.0), (20.0, 2.0), (30.0, 3.0)]);
        assert_eq!(s.value_at(t(5.0)), None);
        assert_eq!(s.value_at(t(10.0)), Some(1.0));
        assert_eq!(s.value_at(t(15.0)), Some(1.0));
        assert_eq!(s.value_at(t(20.0)), Some(2.0));
        assert_eq!(s.value_at(t(99.0)), Some(3.0));
    }

    #[test]
    fn tail_mean() {
        let s = series("x", &[(0.0, 0.0), (1.0, 0.0), (2.0, 10.0), (3.0, 10.0)]);
        assert!((s.tail_mean(0.5) - 10.0).abs() < 1e-12);
        assert!((s.tail_mean(1.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tail_mean_empty_is_nan() {
        let s = TimeSeries::new("e");
        assert!(s.tail_mean(0.5).is_nan());
    }

    #[test]
    fn csv_output() {
        let s = series("tp", &[(0.0, 1.5), (5.0, 2.5)]);
        let mut buf = Vec::new();
        s.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "t_ms,tp\n0,1.5\n5,2.5\n");
    }

    #[test]
    fn aligned_csv_output() {
        let a = series("a", &[(0.0, 1.0), (10.0, 2.0)]);
        let b = series("b", &[(0.0, 5.0)]);
        let mut buf = Vec::new();
        write_aligned_csv(&mut buf, &[&a, &b]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "t_ms,a,b\n0,1,5\n10,2,5\n");
    }
}
