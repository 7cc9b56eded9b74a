//! `scenario report --html` — a dependency-free static dashboard.
//!
//! One self-contained HTML page per plan: the report's summary table
//! and notes, then per-cell inline-SVG sparklines of the recorded
//! trajectories (bound, observed MPL, throughput) with CC-switch and
//! fault markers overlaid. Everything is rendered from the same
//! [`RunRecord`]s the CSV artifacts come from, with `f64` formatting
//! through `Display` (shortest round-trip), so the page is
//! byte-deterministic for a given plan.

use std::fmt::Write as _;

use alc_des::series::TimeSeries;

use crate::compile::{RunPlan, VariantPlan};
use crate::report::Report;
use crate::runner::RunRecord;

/// Sparkline canvas width, px.
const SVG_W: f64 = 560.0;
/// Sparkline canvas height, px.
const SVG_H: f64 = 96.0;
/// Padding inside the canvas, px.
const PAD: f64 = 4.0;

/// Escapes text for HTML body and attribute positions.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
    out
}

/// A vertical event marker on a sparkline.
struct Marker {
    at_ms: f64,
    class: &'static str,
    label: String,
}

/// Renders one series as an inline SVG sparkline with markers.
fn sparkline(out: &mut String, title: &str, series: &TimeSeries, markers: &[Marker]) {
    let pts = series.points();
    if pts.is_empty() {
        return;
    }
    let (t0, t1) = (pts[0].0, pts[pts.len() - 1].0.max(pts[0].0 + 1.0));
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &(_, v) in pts {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if hi <= lo {
        hi = lo + 1.0;
    }
    let x = |t: f64| PAD + (t - t0) / (t1 - t0) * (SVG_W - 2.0 * PAD);
    let y = |v: f64| SVG_H - PAD - (v - lo) / (hi - lo) * (SVG_H - 2.0 * PAD);
    let _ = write!(
        out,
        "<figure><figcaption>{} <span class=\"range\">[{lo} .. {hi}]</span></figcaption>\
         <svg viewBox=\"0 0 {SVG_W} {SVG_H}\" width=\"{SVG_W}\" height=\"{SVG_H}\" \
         role=\"img\" aria-label=\"{}\">",
        escape(title),
        escape(title)
    );
    for m in markers {
        if m.at_ms < t0 || m.at_ms > t1 {
            continue;
        }
        let mx = x(m.at_ms);
        let _ = write!(
            out,
            "<line class=\"{}\" x1=\"{mx}\" y1=\"0\" x2=\"{mx}\" y2=\"{SVG_H}\">\
             <title>{}</title></line>",
            m.class,
            escape(&m.label)
        );
    }
    out.push_str("<polyline fill=\"none\" class=\"series\" points=\"");
    for (i, &(t, v)) in pts.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{},{}", x(t), y(v));
    }
    out.push_str("\"/></svg></figure>\n");
}

/// The markers of one cell: completed CC switches and capacity faults.
fn cell_markers(v: &VariantPlan, rec: &RunRecord) -> Vec<Marker> {
    let mut markers = Vec::new();
    if let Some(traj) = &rec.trajectories {
        for e in &traj.switches {
            markers.push(Marker {
                at_ms: e.completed_at_ms,
                class: "switch",
                label: format!(
                    "switch {} -> {} @ {}ms",
                    crate::spec::cc_spec_name(e.from),
                    crate::spec::cc_spec_name(e.to),
                    e.completed_at_ms
                ),
            });
        }
    }
    for &(at_ms, delta) in &v.fault_timelines[rec.replication as usize] {
        markers.push(Marker {
            at_ms,
            class: "fault",
            label: format!("fault {delta:+} cpus @ {at_ms}ms"),
        });
    }
    markers
}

/// Renders the whole dashboard page.
pub fn render_dashboard(plan: &RunPlan, records: &[RunRecord], report: &Report) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(out, "<title>{}</title>", escape(&plan.name));
    out.push_str(
        "<style>\n\
         body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
         padding:0 1rem;color:#1b1f24}\n\
         h1{font-size:1.5rem} h2{font-size:1.1rem;margin-top:2rem;\
         border-top:1px solid #d0d7de;padding-top:1rem}\n\
         table{border-collapse:collapse;margin:1rem 0}\n\
         th,td{border:1px solid #d0d7de;padding:0.3rem 0.6rem;text-align:right}\n\
         th:first-child,td:first-child{text-align:left}\n\
         figure{display:inline-block;margin:0.5rem 1rem 0.5rem 0}\n\
         figcaption{font-size:0.8rem;color:#57606a}\n\
         .range{color:#8c959f}\n\
         svg{background:#f6f8fa;border:1px solid #d0d7de}\n\
         .series{stroke:#0969da;stroke-width:1.5}\n\
         .switch{stroke:#bc4c00;stroke-width:1;stroke-dasharray:3 2}\n\
         .fault{stroke:#cf222e;stroke-width:1;stroke-dasharray:1 2}\n\
         .notes li{margin:0.25rem 0}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(out, "<h1>{}</h1>", escape(&plan.name));
    let _ = writeln!(out, "<p>{}</p>", escape(&plan.description));

    out.push_str("<h2>Summary</h2>\n<table><thead><tr>");
    for h in &report.headers {
        let _ = write!(out, "<th>{}</th>", escape(h));
    }
    out.push_str("</tr></thead><tbody>\n");
    for row in &report.rows {
        out.push_str("<tr>");
        for cell in row {
            let _ = write!(out, "<td>{}</td>", escape(cell));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</tbody></table>\n");
    if !report.notes.is_empty() {
        out.push_str("<ul class=\"notes\">\n");
        for note in &report.notes {
            let _ = writeln!(out, "<li>{}</li>", escape(note));
        }
        out.push_str("</ul>\n");
    }

    for rec in records {
        let Some(traj) = &rec.trajectories else {
            continue;
        };
        let Some(v) = plan.variants.iter().find(|v| v.label == rec.label) else {
            continue;
        };
        let mut heading = if rec.label.is_empty() {
            plan.name.clone()
        } else {
            rec.label.clone()
        };
        if v.seeds.len() > 1 {
            let _ = write!(heading, " (rep {})", rec.replication);
        }
        let _ = writeln!(
            out,
            "<h2>{} <span class=\"range\">seed {}</span></h2>",
            escape(&heading),
            rec.seed
        );
        let markers = cell_markers(v, rec);
        sparkline(&mut out, "MPL bound n*(t)", &traj.bound, &markers);
        sparkline(&mut out, "observed MPL n(t)", &traj.observed_mpl, &markers);
        sparkline(&mut out, "throughput (commits/s)", &traj.throughput, &markers);
        if !traj.optimum.is_empty() {
            sparkline(&mut out, "analytic optimum n_opt(t)", &traj.optimum, &markers);
        }
        if !traj.abandons.is_empty() {
            sparkline(&mut out, "abandonments per interval", &traj.abandons, &markers);
        }
    }

    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_value;
    use crate::runner::run_plan;

    #[test]
    fn dashboard_renders_deterministically() {
        let tree: serde::Value = serde_json::from_str(
            r#"{
            "name": "dash-unit", "horizon_ms": 5000.0, "seed": 3,
            "system": {"terminals": 20, "think": {"exponential": 250}},
            "control": {"sample_interval_ms": 500.0, "warmup_ms": 1000.0},
            "workload": {"k": 4},
            "controller": {"is": {"initial_bound": 5, "max_bound": 40}},
            "trajectories": true,
            "faults": [{"at": 2000.0, "duration": 1500.0, "cpus_down": 1}]
        }"#,
        )
        .unwrap();
        let mut plan = compile_value(&tree, std::path::Path::new("."), false).unwrap();
        for v in &mut plan.variants {
            v.keep_trajectories = true;
        }
        let records = run_plan(&plan);
        let report = crate::runner::build_report(&plan, &records);
        let a = render_dashboard(&plan, &records, &report);
        let b = render_dashboard(&plan, &records, &report);
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.contains("<svg"), "page carries inline SVG sparklines");
        assert!(a.contains("class=\"fault\""), "fault markers rendered");
        assert!(a.contains("dash-unit"), "plan name present");
        assert!(!a.contains("<script"), "dashboard is script-free");
    }

    #[test]
    fn escape_neutralizes_markup() {
        assert_eq!(escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
