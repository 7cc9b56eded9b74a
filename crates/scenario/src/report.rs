//! Experiment reports: a table, free-form notes, the claims a figure
//! checks, and optional CSV output.
//!
//! Rendering goes through a single reused `String` per report (one
//! allocation, one `write_all`) instead of per-cell `format!` calls into
//! the writer — sweep specs emit thousands of rows, and the
//! output stage should never pay a syscall or realloc per row.

use std::fmt::Write as _;
use std::path::Path;

use crate::table;

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`fig12`, `abl-dither`, …).
    pub id: String,
    /// One-line description (what the paper artifact shows).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Preformatted charts rendered verbatim between table and notes
    /// (ASCII trajectory plots for the figure experiments).
    pub charts: Vec<String>,
    /// Headline findings appended under the table — the
    /// paper-vs-measured statements.
    pub notes: Vec<String>,
    /// The paper's results this report checks, rendered after the notes:
    /// `(holds, text)`, the text naming the measured value and the band.
    pub claims: Vec<(bool, String)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            charts: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Appends a preformatted chart (rendered verbatim after the table).
    pub fn chart(&mut self, s: impl Into<String>) {
        self.charts.push(s.into());
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Appends a claim: a paper result whose `text` names the measured
    /// value and the band, and whether the value lies inside it.
    pub fn claim(&mut self, holds: bool, text: impl Into<String>) {
        self.claims.push((holds, text.into()));
    }

    /// The texts of the claims whose measured value lies outside their
    /// band.
    pub fn failed_claims(&self) -> impl Iterator<Item = &str> {
        self.claims.iter().filter(|c| !c.0).map(|c| c.1.as_str())
    }

    /// Renders the report as text: title, table, charts, notes, claims.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let headers: Vec<&str> = self.headers.iter().map(|s| s.as_str()).collect();
        let _ = write!(out, "== {} — {}\n\n", self.id, self.title);
        table::render_into(&mut out, &headers, &self.rows);
        for c in &self.charts {
            out.push('\n');
            out.push_str(c);
        }
        if !self.notes.is_empty() || !self.claims.is_empty() {
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  * {n}");
        }
        for (holds, text) in &self.claims {
            let verdict = if *holds { "holds" } else { "FAILS" };
            let _ = writeln!(out, "  [claim {verdict}] {text}");
        }
        out
    }

    /// Renders the table as CSV into `out` (appending). A cell holding a
    /// comma, a quote or a line break is quoted per RFC 4180 (quotes
    /// doubled); every other cell is written as is.
    pub fn render_csv_into(&self, out: &mut String) {
        out.reserve(self.rows.len() * 32 + 64);
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n', '\r']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
    }

    /// Writes the table as `<dir>/<id>.csv` — rendered into one buffer
    /// and written with a single call.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut buf = String::new();
        self.render_csv_into(&mut buf);
        std::fs::write(&path, buf.as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_render_and_csv() {
        let mut r = Report::new("figX", "demo", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.note("note line");
        r.claim(true, "inside its band");
        r.claim(false, "outside its band");
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("note line"));
        assert!(text.contains("  [claim holds] inside its band\n"));
        assert!(text.contains("  [claim FAILS] outside its band\n"));
        assert_eq!(r.failed_claims().collect::<Vec<_>>(), ["outside its band"]);

        let dir = std::env::temp_dir().join("alc_scenario_report_test_csv");
        let path = r.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_only_the_cells_that_need_it() {
        let mut r = Report::new("figQ", "demo", &["run,extra", "plain"]);
        r.push_row(vec!["say \"hi\"".into(), "two\nlines".into()]);
        r.push_row(vec!["1".into(), "2".into()]);
        let mut csv = String::new();
        r.render_csv_into(&mut csv);
        assert_eq!(
            csv,
            "\"run,extra\",plain\n\"say \"\"hi\"\"\",\"two\nlines\"\n1,2\n"
        );
    }
}
