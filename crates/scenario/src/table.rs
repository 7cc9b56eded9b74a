//! Plain-text table rendering for experiment output.

use std::fmt::Write as _;

/// Renders rows as an aligned text table with a header line, appended to
/// `out` — all formatting lands in the caller's buffer directly, never in
/// per-row intermediate strings.
pub fn render_into(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.reserve((rows.len() + 2) * (total + 1));
    let fmt_cell = |out: &mut String, i: usize, cell: &str, widths: &[usize]| {
        if i > 0 {
            out.push_str("  ");
        }
        let w = widths.get(i).copied().unwrap_or(cell.len());
        // Right-align numbers, left-align text.
        if cell.parse::<f64>().is_ok() {
            let _ = write!(out, "{cell:>w$}");
        } else {
            let _ = write!(out, "{cell:<w$}");
        }
    };
    for (i, h) in headers.iter().enumerate() {
        fmt_cell(out, i, h, &widths);
    }
    out.push('\n');
    for _ in 0..total {
        out.push('-');
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            fmt_cell(out, i, cell, &widths);
        }
        out.push('\n');
    }
}

/// Formats a float with a sensible number of digits for tables.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_string();
    }
    let a = v.abs();
    if a >= 1000.0 || (a - a.round()).abs() < 1e-9 && a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.1 {
        format!("{v:.2}")
    } else if a == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = String::new();
        render_into(
            &mut t,
            &["name", "value"],
            &[
                vec!["alpha".into(), "1.5".into()],
                vec!["b".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("alpha"));
    }

    #[test]
    fn num_formatting() {
        // {:.0} rounds half-to-even.
        assert_eq!(num(1234.5), "1234");
        assert_eq!(num(1235.5), "1236");
        assert_eq!(num(12.34), "12.3");
        assert_eq!(num(1.234), "1.23");
        assert_eq!(num(0.01234), "0.0123");
        assert_eq!(num(0.0), "0");
        assert_eq!(num(f64::NAN), "-");
    }
}
