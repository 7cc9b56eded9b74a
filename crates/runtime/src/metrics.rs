//! Runtime metrics snapshots and their JSONL export.
//!
//! [`ControlLoop::metrics`](crate::ControlLoop::metrics) flattens the
//! loop's live state — gate occupancy, cumulative outcome counters, and
//! the last harvested window (latency quantiles included) — into one
//! [`MetricsSnapshot`]. The JSONL form mirrors the gate-log format
//! (`log.rs`): one externally-tagged object per line, every `f64`
//! round-tripping exactly through the workspace shim's
//! shortest-representation formatting, so an exported series reads back
//! equal to what was written.

use std::io::{self, BufRead, Write};

use serde::{Obj, Value};

use crate::log::{read_jsonl, JsonlError};

/// One flattened observation of a running [`ControlLoop`].
///
/// Cumulative counters (`commits`, `aborts`, `sheds`, `decisions`)
/// count since construction; the `window_*` and quantile fields carry
/// the last harvested window and are zero before the first tick.
///
/// [`ControlLoop`]: crate::ControlLoop
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Snapshot time, ms since the loop's epoch.
    pub at_ms: f64,
    /// The MPL bound currently enforced by the gate.
    pub bound: u32,
    /// Permits currently held.
    pub in_use: u32,
    /// Arrivals currently queued at the gate.
    pub waiting: u32,
    /// Commits reported since construction.
    pub commits: u64,
    /// Aborts reported since construction.
    pub aborts: u64,
    /// Arrivals shed since construction.
    pub sheds: u64,
    /// Harvest decisions taken since construction.
    pub decisions: u64,
    /// Committed transactions in the last harvested window.
    pub window_departures: u64,
    /// Aborts in the last harvested window.
    pub window_aborts: u64,
    /// Arrivals shed during the last harvested window.
    pub window_shed: u64,
    /// Time-averaged concurrency over the last window.
    pub observed_mpl: f64,
    /// Mean response time of the last window's commits, ms.
    pub mean_response_ms: f64,
    /// Median response time of the last window, ms: a histogram
    /// estimate, never below the true rank quantile and at most 1/16
    /// above it, as are p95 and p99.
    pub p50_ms: f64,
    /// 95th-percentile response time of the last window, ms.
    pub p95_ms: f64,
    /// 99th-percentile response time of the last window, ms.
    pub p99_ms: f64,
    /// Gate queue depth at the last harvest.
    pub queue_depth: u32,
}

impl MetricsSnapshot {
    /// The snapshot as written to disk, its fields in declaration order.
    fn to_value(&self) -> Value {
        let num = |k: &str, x: f64| (k.to_string(), Value::Num(x));
        let int = |k: &str, x: u64| (k.to_string(), Value::U64(x));
        Value::Map(vec![
            num("at_ms", self.at_ms),
            int("bound", self.bound.into()),
            int("in_use", self.in_use.into()),
            int("waiting", self.waiting.into()),
            int("commits", self.commits),
            int("aborts", self.aborts),
            int("sheds", self.sheds),
            int("decisions", self.decisions),
            int("window_departures", self.window_departures),
            int("window_aborts", self.window_aborts),
            int("window_shed", self.window_shed),
            num("observed_mpl", self.observed_mpl),
            num("mean_response_ms", self.mean_response_ms),
            num("p50_ms", self.p50_ms),
            num("p95_ms", self.p95_ms),
            num("p99_ms", self.p99_ms),
            int("queue_depth", self.queue_depth.into()),
        ])
    }

    /// Reads what [`MetricsSnapshot::to_value`] writes, strictly.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let mut o = Obj::open(v, "MetricsSnapshot")?;
        let snapshot = MetricsSnapshot {
            at_ms: o.f64("at_ms")?,
            bound: o.u32("bound")?,
            in_use: o.u32("in_use")?,
            waiting: o.u32("waiting")?,
            commits: o.u64("commits")?,
            aborts: o.u64("aborts")?,
            sheds: o.u64("sheds")?,
            decisions: o.u64("decisions")?,
            window_departures: o.u64("window_departures")?,
            window_aborts: o.u64("window_aborts")?,
            window_shed: o.u64("window_shed")?,
            observed_mpl: o.f64("observed_mpl")?,
            mean_response_ms: o.f64("mean_response_ms")?,
            p50_ms: o.f64("p50_ms")?,
            p95_ms: o.f64("p95_ms")?,
            p99_ms: o.f64("p99_ms")?,
            queue_depth: o.u32("queue_depth")?,
        };
        o.finish()?;
        Ok(snapshot)
    }
}

/// Renders one snapshot as its JSONL line (without the newline).
fn metrics_line(snapshot: &MetricsSnapshot) -> String {
    serde_json::to_string(&snapshot.to_value())
}

/// Writes a snapshot series to `w`, one JSONL line each.
pub fn write_metrics_jsonl<W: Write>(mut w: W, snapshots: &[MetricsSnapshot]) -> io::Result<()> {
    for s in snapshots {
        writeln!(w, "{}", metrics_line(s))?;
    }
    Ok(())
}

/// Reads a snapshot series back, in order. Blank lines are skipped.
pub fn read_metrics_jsonl<R: BufRead>(r: R) -> Result<Vec<MetricsSnapshot>, JsonlError> {
    let mut out = Vec::new();
    read_jsonl(r, |_, value| {
        out.push(MetricsSnapshot::from_value(value)?);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MetricsSnapshot> {
        vec![
            MetricsSnapshot {
                at_ms: 0.0,
                bound: 4,
                in_use: 0,
                waiting: 0,
                commits: 0,
                aborts: 0,
                sheds: 0,
                decisions: 0,
                window_departures: 0,
                window_aborts: 0,
                window_shed: 0,
                observed_mpl: 0.0,
                mean_response_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                queue_depth: 0,
            },
            MetricsSnapshot {
                at_ms: 2000.125,
                bound: 7,
                in_use: 5,
                waiting: 2,
                commits: 341,
                aborts: 12,
                sheds: 3,
                decisions: 1,
                window_departures: 341,
                window_aborts: 12,
                window_shed: 3,
                observed_mpl: 4.833333333333333,
                mean_response_ms: 18.700000000000003,
                p50_ms: 14.5,
                p95_ms: 61.25,
                p99_ms: 90.0,
                queue_depth: 2,
            },
        ]
    }

    #[test]
    fn metrics_jsonl_round_trips_bytes() {
        let series = sample();
        let mut buf = Vec::new();
        write_metrics_jsonl(&mut buf, &series).expect("write");
        let back = read_metrics_jsonl(io::BufReader::new(&buf[..])).expect("read");
        assert_eq!(back, series);
        let mut again = Vec::new();
        write_metrics_jsonl(&mut again, &back).expect("rewrite");
        assert_eq!(buf, again);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "\nnot json\n";
        let err = read_metrics_jsonl(io::BufReader::new(text.as_bytes())).unwrap_err();
        match err {
            JsonlError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
