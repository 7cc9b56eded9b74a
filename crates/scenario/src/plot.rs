//! Terminal rendering of trajectory charts — the paper's Figures 3 and
//! 13/14 are exactly "bound and optimum over time" plots, so
//! `scenario figure` draws them next to the summary tables.

use alc_des::series::TimeSeries;
use alc_des::SimTime;

/// Glyphs assigned to series in order; the *first* series is drawn on
/// top (last), so give it the most prominent glyph.
const GLYPHS: [char; 4] = ['*', '·', '+', 'x'];

/// Renders the series as a `width`×`height` character chart with y-axis
/// labels, an x-axis time line (seconds) and a legend. Series are sampled
/// per column (step interpolation); non-finite values are skipped.
pub fn chart(series: &[(&str, &TimeSeries)], width: usize, height: usize) -> String {
    render(series, width, height, &|t| format!("{:.0}s", t / 1000.0))
}

/// Like [`chart`] but for curves whose x-axis is not time (e.g. the
/// load–throughput function): x labels print the raw value with `x_name`.
pub fn curve(
    series: &[(&str, &TimeSeries)],
    width: usize,
    height: usize,
    x_name: &str,
) -> String {
    render(series, width, height, &|x| format!("{x:.0} {x_name}"))
}

fn render(
    series: &[(&str, &TimeSeries)],
    width: usize,
    height: usize,
    fmt_x: &dyn Fn(f64) -> String,
) -> String {
    assert!(width >= 16 && height >= 4, "chart too small to be legible");
    assert!(!series.is_empty() && series.len() <= GLYPHS.len());

    // Global ranges over all series.
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    let mut y_min = f64::INFINITY;
    let mut y_max = f64::NEG_INFINITY;
    for (_, s) in series {
        for &(t, v) in s.points() {
            if v.is_finite() {
                t_min = t_min.min(t);
                t_max = t_max.max(t);
                y_min = y_min.min(v);
                y_max = y_max.max(v);
            }
        }
    }
    if !t_min.is_finite() || !y_min.is_finite() {
        return String::from("(no finite data to plot)\n");
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0; // flat line: give it a band to sit in
    }
    let t_span = (t_max - t_min).max(f64::EPSILON);

    let mut grid = vec![vec![' '; width]; height];
    // Draw in reverse so series[0] lands on top.
    #[allow(clippy::needless_range_loop)] // col drives both t and the grid
    for (si, (_, s)) in series.iter().enumerate().rev() {
        let glyph = GLYPHS[si];
        for col in 0..width {
            let t = t_min + (col as f64 + 0.5) / width as f64 * t_span;
            let Some(v) = s.value_at(SimTime::new(t)) else {
                continue;
            };
            if !v.is_finite() {
                continue;
            }
            let frac = ((v - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
            let row = height - 1 - (frac * (height - 1) as f64).round() as usize;
            grid[row][col] = glyph;
        }
    }

    let label_w = 8;
    let mut out = String::with_capacity((width + label_w + 2) * (height + 3));
    for (row, cells) in grid.iter().enumerate() {
        let frac = 1.0 - row as f64 / (height - 1) as f64;
        let label = if row == 0 || row == height - 1 || row == (height - 1) / 2 {
            format!("{:>label_w$.0}", y_min + frac * (y_max - y_min))
        } else {
            " ".repeat(label_w)
        };
        out.push_str(&label);
        out.push_str(" |");
        out.extend(cells.iter());
        out.push('\n');
    }
    out.push_str(&" ".repeat(label_w));
    out.push_str(" +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let left = fmt_x(t_min);
    let right = fmt_x(t_max);
    let pad = width.saturating_sub(left.len() + right.len());
    out.push_str(&" ".repeat(label_w + 2));
    out.push_str(&left);
    out.push_str(&" ".repeat(pad));
    out.push_str(&right);
    out.push('\n');
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", GLYPHS[i], name))
        .collect();
    out.push_str(&" ".repeat(label_w + 2));
    out.push_str(&legend.join("   "));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(name: &str, n: usize, slope: f64) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for i in 0..n {
            s.push(SimTime::new(i as f64 * 1000.0), slope * i as f64);
        }
        s
    }

    #[test]
    fn renders_expected_dimensions() {
        let a = ramp("up", 100, 1.0);
        let out = chart(&[("up", &a)], 60, 10);
        let lines: Vec<&str> = out.lines().collect();
        // height rows + axis + time labels + legend.
        assert_eq!(lines.len(), 13);
        assert!(lines.iter().take(10).all(|l| l.len() == 8 + 2 + 60));
        assert!(out.contains("* up"));
    }

    #[test]
    fn monotone_series_fills_the_diagonal() {
        let a = ramp("up", 200, 2.0);
        let out = chart(&[("up", &a)], 40, 8);
        let lines: Vec<&str> = out.lines().collect();
        // Top row has marks near the right, bottom row near the left.
        let top = lines[0];
        let bottom = lines[7];
        assert!(top.rfind('*').unwrap() > bottom.rfind('*').unwrap());
    }

    #[test]
    fn two_series_use_distinct_glyphs() {
        let a = ramp("a", 50, 1.0);
        let b = ramp("b", 50, -1.0);
        let out = chart(&[("a", &a), ("b", &b)], 40, 8);
        assert!(out.contains('*'));
        assert!(out.contains('·'));
        assert!(out.contains("* a"));
        assert!(out.contains("· b"));
    }

    #[test]
    fn y_labels_cover_the_range() {
        let a = ramp("a", 11, 10.0); // 0..100
        let out = chart(&[("a", &a)], 30, 5);
        assert!(out.contains("100"), "max label missing:\n{out}");
        assert!(out.lines().nth(4).unwrap().trim_start().starts_with('0'));
    }

    #[test]
    fn flat_series_does_not_panic() {
        let mut s = TimeSeries::new("flat");
        for i in 0..20 {
            s.push(SimTime::new(f64::from(i) * 100.0), 42.0);
        }
        let out = chart(&[("flat", &s)], 30, 5);
        assert!(out.contains('*'));
    }

    #[test]
    fn empty_series_yields_placeholder() {
        let s = TimeSeries::new("empty");
        let out = chart(&[("empty", &s)], 30, 5);
        assert!(out.contains("no finite data"));
    }

    #[test]
    fn curve_labels_use_raw_x_values() {
        let mut s = TimeSeries::new("throughput");
        for bound in [10.0, 100.0, 800.0] {
            s.push(SimTime::new(bound), bound / 10.0);
        }
        let out = curve(&[("T", &s)], 40, 6, "MPL");
        assert!(out.contains("10 MPL"), "min x label missing:\n{out}");
        assert!(out.contains("800 MPL"), "max x label missing:\n{out}");
        assert!(!out.contains("0s"), "time formatting leaked into curve");
    }
}
